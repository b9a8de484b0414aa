// Package seglog implements the durable, append-only, per-source
// segmented log behind resumable subscriptions (DESIGN.md §11). The
// dissemination layer already encodes every released transmission
// exactly once (the pooled fan-out frame); this package persists those
// encoded bytes on the publish path, assigning each record a dense
// per-source offset, so a subscriber can later replay the stream it
// missed and splice into the live feed without gaps or duplicates.
//
// Layout: one directory per source (the source name hex-encoded, so any
// name is a safe path component) holding segment files named by the
// offset of their first record:
//
//	<dir>/<hex(source)>/<%016x first-offset>.seg
//
// A segment file is an 8-byte magic followed by records:
//
//	record: u64 offset | u32 payload length | u32 CRC32 (IEEE) of payload | payload
//
// (integers little-endian). Offsets are dense (0, 1, 2, ...) per
// source; the offset is stored redundantly so recovery can verify the
// chain. Startup recovery scans every segment, keeps the longest valid
// prefix, truncates a torn tail in place, and drops segments stranded
// behind a corrupt one — the log is always a prefix of what was
// appended, never a sequence with holes.
//
// Appends for one source are serialized by the caller (the shard worker
// that owns the source's sink flushes); readers run concurrently with
// appends and observe a consistent snapshot taken at read start.
package seglog

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Magic opens every segment file; a file without it is not a segment.
const Magic = "gasfsg01"

// MaxPayload bounds one record payload, mirroring the wire protocol's
// frame limit: anything larger could never have crossed the fan-out.
const MaxPayload = 1 << 20

// recordHeaderLen is the encoded size of a record header.
const recordHeaderLen = 8 + 4 + 4

// Policy selects when appended records are forced to stable storage.
type Policy int

const (
	// SyncInterval fsyncs dirty segments from a background ticker every
	// Options.Interval — bounded data loss on power failure, negligible
	// cost on the publish path. The default.
	SyncInterval Policy = iota
	// SyncNever leaves persistence to the OS page cache. Crash-safe
	// against process death (the cache survives), not power loss.
	SyncNever
	// SyncAlways fsyncs after every append — no loss window, publish
	// path pays a disk flush per record.
	SyncAlways
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy reads a policy name ("interval", "never" or "always").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	case "always":
		return SyncAlways, nil
	default:
		return 0, fmt.Errorf("seglog: unknown fsync policy %q (want interval, never or always)", s)
	}
}

// Options tunes a Log. The zero value rotates at 64 MiB and fsyncs
// every 200ms from the background syncer.
type Options struct {
	// SegmentBytes is the rotation threshold: a segment whose size
	// reaches it is sealed and a new one started. 0 means 64 MiB.
	SegmentBytes int64
	// Fsync selects the durability policy.
	Fsync Policy
	// Interval paces the background syncer under SyncInterval; 0 means
	// 200ms.
	Interval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 200 * time.Millisecond
	}
	return o
}

// AppendRecord appends the framing of one log record to buf. It is the
// single encoder recovery, appends and the fuzz target share.
func AppendRecord(buf []byte, offset uint64, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, offset)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// DecodeRecord parses one record from the head of data, verifying the
// CRC, and returns the offset, a payload view into data, and the bytes
// consumed. Any framing violation — truncation, oversized length, CRC
// mismatch — is an error; recovery treats it as the torn tail.
func DecodeRecord(data []byte) (offset uint64, payload []byte, n int, err error) {
	if len(data) < recordHeaderLen {
		return 0, nil, 0, fmt.Errorf("seglog: truncated record header (%d bytes)", len(data))
	}
	offset = binary.LittleEndian.Uint64(data)
	size := binary.LittleEndian.Uint32(data[8:])
	sum := binary.LittleEndian.Uint32(data[12:])
	if size > MaxPayload {
		return 0, nil, 0, fmt.Errorf("seglog: record payload %d exceeds limit", size)
	}
	n = recordHeaderLen + int(size)
	if len(data) < n {
		return 0, nil, 0, fmt.Errorf("seglog: truncated record payload (%d of %d bytes)", len(data)-recordHeaderLen, size)
	}
	payload = data[recordHeaderLen:n]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, 0, fmt.Errorf("seglog: record %d fails CRC", offset)
	}
	return offset, payload, n, nil
}

// segment is one on-disk file of a source's log.
type segment struct {
	path  string
	first uint64 // offset of the segment's first record
}

// sourceLog is the per-source state: the segment chain and the active
// tail. mu guards everything; appends hold it briefly (the write
// itself included), readers hold it only to snapshot.
type sourceLog struct {
	mu    sync.Mutex
	dir   string
	segs  []segment
	f     *os.File // active (last) segment, opened lazily for append
	size  int64    // committed size of the active segment
	next  uint64   // next record offset
	buf   []byte   // append staging, recycled
	dirty bool     // has unsynced writes (SyncInterval)
	// syncErr is a failed background sync not yet reported: the next
	// Append (or Close) returns it. The segment stays dirty, so the
	// next tick retries the sync.
	syncErr error
}

// Log is a durable per-source segmented record log. Open recovers it,
// Append extends it, Read replays a half-open offset range, Close seals
// it. Appends for one source must be serialized by the caller; all
// other operations are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu      sync.RWMutex
	sources map[string]*sourceLog

	stop     chan struct{}
	syncerWG sync.WaitGroup
	closed   bool
}

// Open opens (creating if needed) the log rooted at dir and recovers
// every source found under it: torn tails are truncated in place and
// segments stranded behind a corrupt record are removed, so each
// source's NextOffset reflects exactly the records that survive.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	l := &Log{
		dir:     dir,
		opts:    opts,
		sources: make(map[string]*sourceLog),
		stop:    make(chan struct{}),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		nameBytes, err := hex.DecodeString(e.Name())
		if err != nil {
			continue // not a source directory
		}
		sl, err := recoverSource(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("seglog: recovering source %q: %w", string(nameBytes), err)
		}
		l.sources[string(nameBytes)] = sl
	}
	if opts.Fsync == SyncInterval {
		l.syncerWG.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// recoverSource scans a source directory, validating every segment and
// keeping the longest valid record prefix: the chain must start at
// offset 0, stay dense across files, and every record must pass the
// CRC. The first violation ends the prefix — the torn segment is
// truncated in place and everything behind it removed.
func recoverSource(dir string) (*sourceLog, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		var first uint64
		if _, err := fmt.Sscanf(e.Name(), "%016x.seg", &first); err != nil {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	sl := &sourceLog{dir: dir}
	expect := uint64(0)
	for i, seg := range segs {
		keep := seg.first == expect
		var validSize int64
		var nextOff uint64
		var intact bool
		if keep {
			validSize, nextOff, intact, err = scanSegment(seg.path, seg.first)
			if err != nil {
				return nil, err
			}
			keep = validSize >= int64(len(Magic))
		}
		if !keep {
			// A gap before this segment, or not even the magic survived:
			// nothing from here on is reachable without a hole.
			for _, later := range segs[i:] {
				if err := os.Remove(later.path); err != nil {
					return nil, err
				}
			}
			break
		}
		if fi, err := os.Stat(seg.path); err != nil {
			return nil, err
		} else if fi.Size() != validSize {
			if err := os.Truncate(seg.path, validSize); err != nil {
				return nil, err
			}
		}
		sl.segs = append(sl.segs, seg)
		sl.size = validSize
		sl.next = nextOff
		expect = nextOff
		if !intact {
			// The valid prefix ends inside this segment; later segments
			// would leave a hole, so they are dropped.
			for _, later := range segs[i+1:] {
				if err := os.Remove(later.path); err != nil {
					return nil, err
				}
			}
			break
		}
	}
	return sl, nil
}

// scanSegment validates a segment file: the magic, then records with
// dense offsets starting at first. It returns the byte size of the
// valid prefix, the offset after the last valid record, and whether the
// whole file was valid (false means a torn or corrupt tail).
func scanSegment(path string, first uint64) (validSize int64, nextOff uint64, intact bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, first, false, err
	}
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return 0, first, false, nil
	}
	pos := int64(len(Magic))
	next := first
	for int(pos) < len(data) {
		off, _, n, err := DecodeRecord(data[pos:])
		if err != nil || off != next {
			return pos, next, false, nil
		}
		pos += int64(n)
		next++
	}
	return pos, next, true, nil
}

// get returns the per-source state, creating it on demand.
func (l *Log) get(source string) *sourceLog {
	l.mu.RLock()
	sl := l.sources[source]
	l.mu.RUnlock()
	if sl != nil {
		return sl
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if sl = l.sources[source]; sl == nil {
		sl = &sourceLog{dir: filepath.Join(l.dir, hex.EncodeToString([]byte(source)))}
		l.sources[source] = sl
	}
	return sl
}

// NextOffset returns the offset the next Append for source will use —
// equivalently, the number of records the source's log holds. Captured
// at a tuple boundary it is the splice fence between replay and live.
func (l *Log) NextOffset(source string) uint64 {
	sl := l.get(source)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.next
}

// Sources returns the source names present in the log.
func (l *Log) Sources() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	names := make([]string, 0, len(l.sources))
	for name := range l.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Append writes one record and returns its offset. Appends for one
// source must be serialized by the caller. Under SyncAlways the record
// is on stable storage when Append returns; otherwise durability
// follows the policy and a crash may lose the tail — recovery then
// truncates back to the last intact record. When a background
// (SyncInterval) sync of the source failed since the last Append, this
// Append writes nothing and returns that failure.
func (l *Log) Append(source string, payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("seglog: payload %d exceeds limit", len(payload))
	}
	sl := l.get(source)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if err := sl.syncErr; err != nil {
		// Records already written may not be on stable storage; the
		// caller learns before it appends more.
		sl.syncErr = nil
		return sl.next, fmt.Errorf("seglog: background sync of %q failed: %w", source, err)
	}
	if err := sl.ensureOpen(l.opts); err != nil {
		return 0, err
	}
	off := sl.next
	sl.buf = AppendRecord(sl.buf[:0], off, payload)
	if _, err := sl.f.Write(sl.buf); err != nil {
		// The write may have landed partially; the in-memory size is not
		// advanced, and recovery truncates whatever half-record hit disk.
		return off, fmt.Errorf("seglog: appending to %q: %w", source, err)
	}
	sl.size += int64(len(sl.buf))
	sl.next++
	sl.dirty = true
	if l.opts.Fsync == SyncAlways {
		if err := sl.f.Sync(); err != nil {
			return off, fmt.Errorf("seglog: syncing %q: %w", source, err)
		}
		sl.dirty = false
	}
	if sl.size >= l.opts.SegmentBytes {
		if err := sl.rotate(l.opts); err != nil {
			return off, err
		}
	}
	return off, nil
}

// ensureOpen opens (or creates) the active segment for appending.
func (sl *sourceLog) ensureOpen(opts Options) error {
	if sl.f != nil {
		return nil
	}
	if len(sl.segs) == 0 {
		return sl.rotate(opts) // creates the first segment
	}
	f, err := os.OpenFile(sl.segs[len(sl.segs)-1].path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	if _, err := f.Seek(sl.size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("seglog: %w", err)
	}
	sl.f = f
	return nil
}

// rotate seals the active segment and starts a fresh one whose name is
// the next offset. Called with sl.mu held. A failure to seal the old
// segment is returned before any new one is created; the next Append
// reopens the old segment and retries the rotation.
func (sl *sourceLog) rotate(opts Options) error {
	if sl.f != nil {
		var err error
		if opts.Fsync != SyncNever {
			err = sl.f.Sync()
		}
		if cerr := sl.f.Close(); err == nil {
			err = cerr
		}
		sl.f = nil
		sl.dirty = false
		if err != nil {
			return fmt.Errorf("seglog: sealing segment: %w", err)
		}
	}
	if err := os.MkdirAll(sl.dir, 0o755); err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	path := filepath.Join(sl.dir, fmt.Sprintf("%016x.seg", sl.next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	if _, err := f.WriteString(Magic); err != nil {
		f.Close()
		return fmt.Errorf("seglog: %w", err)
	}
	sl.segs = append(sl.segs, segment{path: path, first: sl.next})
	sl.f = f
	sl.size = int64(len(Magic))
	if opts.Fsync != SyncNever {
		// Make the new file itself durable before records land in it.
		// The segment is registered either way, so a failure here leaves
		// the chain consistent and only reports lost durability.
		if err := f.Sync(); err != nil {
			return fmt.Errorf("seglog: syncing new segment: %w", err)
		}
		if err := syncDir(sl.dir); err != nil {
			return fmt.Errorf("seglog: syncing segment directory: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory, making the entries created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Read replays records with offsets in [from, to) in order, calling fn
// with each record's offset and payload. The payload view is valid only
// during the call. Read observes a snapshot taken at call time; records
// appended after Read starts are not visited, so a caller replaying up
// to a fence captured before the call sees exactly [from, to). A to of
// NextOffset-or-higher reads to the snapshot end. fn returning an error
// stops the replay and surfaces it.
func (l *Log) Read(source string, from, to uint64, fn func(offset uint64, payload []byte) error) error {
	c := l.Cursor(source, from, to)
	for {
		off, payload, err := c.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(off, payload); err != nil {
			return err
		}
	}
}

// Cursor is a pull iterator over a snapshot of one source's records in
// [from, to), for readers that consume history one record at a time
// (a subscription's Recv) instead of inside a callback. It holds at most
// one segment's bytes at a time.
type Cursor struct {
	segs     []segment
	active   int64 // committed size of the last segment at snapshot time
	from, to uint64
	seg      int    // index of the next segment to load
	data     []byte // the loaded segment, nil before the first Next
	pos      int
}

// Cursor snapshots the source's segment chain, exactly as Read does.
func (l *Log) Cursor(source string, from, to uint64) *Cursor {
	sl := l.get(source)
	sl.mu.Lock()
	c := &Cursor{segs: append([]segment(nil), sl.segs...), active: sl.size, from: from, to: min(to, sl.next)}
	sl.mu.Unlock()
	// Skip segments wholly before the range.
	for c.seg+1 < len(c.segs) && c.segs[c.seg+1].first <= from {
		c.seg++
	}
	return c
}

// Next returns the next record in range; the payload view is valid until
// the following Next. It returns io.EOF once the range is exhausted.
func (c *Cursor) Next() (uint64, []byte, error) {
	for c.from < c.to {
		if c.pos >= len(c.data) {
			if err := c.load(); err != nil {
				return 0, nil, err
			}
			continue
		}
		off, payload, n, err := DecodeRecord(c.data[c.pos:])
		if err != nil {
			return 0, nil, fmt.Errorf("seglog: segment %s: %w", c.segs[c.seg-1].path, err)
		}
		c.pos += n
		if off < c.from {
			continue
		}
		if off >= c.to {
			c.from = c.to
			break
		}
		c.from = off + 1
		return off, payload, nil
	}
	c.data = nil
	return 0, nil, io.EOF
}

// load reads the next segment of the snapshot.
func (c *Cursor) load() error {
	if c.seg >= len(c.segs) || c.segs[c.seg].first >= c.to {
		c.from = c.to
		return nil
	}
	seg := c.segs[c.seg]
	c.seg++
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	if c.seg == len(c.segs) && int64(len(data)) > c.active {
		// The file grew past the snapshot (concurrent appends): read only
		// the committed prefix.
		data = data[:c.active]
	}
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return fmt.Errorf("seglog: segment %s lost its magic", seg.path)
	}
	c.data, c.pos = data, len(Magic)
	return nil
}

// syncLoop is the SyncInterval background syncer.
func (l *Log) syncLoop() {
	defer l.syncerWG.Done()
	tick := time.NewTicker(l.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-tick.C:
		}
		l.syncDirty()
	}
}

// syncDirty fsyncs every source with unsynced writes. A failed sync
// keeps the source dirty for the next tick and is reported by the
// source's next Append or by Close.
func (l *Log) syncDirty() {
	l.mu.RLock()
	all := make([]*sourceLog, 0, len(l.sources))
	for _, sl := range l.sources {
		all = append(all, sl)
	}
	l.mu.RUnlock()
	for _, sl := range all {
		sl.mu.Lock()
		if sl.dirty && sl.f != nil {
			if err := sl.f.Sync(); err != nil {
				sl.syncErr = err
			} else {
				sl.dirty = false
			}
		}
		sl.mu.Unlock()
	}
}

// Close seals the log: dirty segments are synced (unless SyncNever) and
// every file handle released. It returns the first failure, including
// a background sync failure no Append has reported yet. The log must
// not be used after Close.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	all := make([]*sourceLog, 0, len(l.sources))
	for _, sl := range l.sources {
		all = append(all, sl)
	}
	l.mu.Unlock()
	close(l.stop)
	l.syncerWG.Wait()
	var firstErr error
	for _, sl := range all {
		sl.mu.Lock()
		if sl.syncErr != nil && firstErr == nil {
			firstErr = fmt.Errorf("seglog: background sync failed: %w", sl.syncErr)
		}
		if sl.f != nil {
			if l.opts.Fsync != SyncNever {
				if err := sl.f.Sync(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			if err := sl.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			sl.f = nil
		}
		sl.mu.Unlock()
	}
	return firstErr
}
