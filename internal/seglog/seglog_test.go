package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// payloadFor builds a distinguishable payload for record i.
func payloadFor(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-payload-with-some-body", i))
}

// fill appends n records for source and asserts the returned offsets
// are dense from the log's current head.
func fill(t *testing.T, l *Log, source string, n int) {
	t.Helper()
	base := l.NextOffset(source)
	for i := 0; i < n; i++ {
		off, err := l.Append(source, payloadFor(int(base)+i))
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		if off != base+uint64(i) {
			t.Fatalf("Append returned offset %d, want %d", off, base+uint64(i))
		}
	}
}

// collect reads [from, to) and returns the visited offsets, asserting
// each payload matches what fill wrote.
func collect(t *testing.T, l *Log, source string, from, to uint64) []uint64 {
	t.Helper()
	var got []uint64
	err := l.Read(source, from, to, func(off uint64, payload []byte) error {
		if want := payloadFor(int(off)); !bytes.Equal(payload, want) {
			t.Fatalf("record %d payload = %q, want %q", off, payload, want)
		}
		got = append(got, off)
		return nil
	})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

func wantDense(t *testing.T, got []uint64, from, to uint64) {
	t.Helper()
	if uint64(len(got)) != to-from {
		t.Fatalf("read %d records, want %d", len(got), to-from)
	}
	for i, off := range got {
		if off != from+uint64(i) {
			t.Fatalf("record %d has offset %d, want %d", i, off, from+uint64(i))
		}
	}
}

func TestAppendReadRoundtrip(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, "alpha", 50)
	fill(t, l, "beta/../odd name", 10) // any name must be a safe path component
	wantDense(t, collect(t, l, "alpha", 0, 50), 0, 50)
	wantDense(t, collect(t, l, "alpha", 17, 40), 17, 40)
	wantDense(t, collect(t, l, "beta/../odd name", 0, 10), 0, 10)
	if got := collect(t, l, "alpha", 50, 100); len(got) != 0 {
		t.Fatalf("read past head returned %d records", len(got))
	}
	if got := l.NextOffset("alpha"); got != 50 {
		t.Fatalf("NextOffset = %d, want 50", got)
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, "src", 40)
	segs, _ := filepath.Glob(filepath.Join(dir, sourceDir(dir, "src"), "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	wantDense(t, collect(t, l, "src", 0, 40), 0, 40)
	wantDense(t, collect(t, l, "src", 13, 29), 13, 29)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery must restore the head across all segments.
	l2, err := Open(dir, Options{SegmentBytes: 256, Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextOffset("src"); got != 40 {
		t.Fatalf("NextOffset after reopen = %d, want 40", got)
	}
	fill(t, l2, "src", 5)
	wantDense(t, collect(t, l2, "src", 0, 45), 0, 45)
}

// sourceDir resolves the on-disk directory name for a source (test
// helper mirroring the hex encoding).
func sourceDir(root, source string) string {
	return fmt.Sprintf("%x", source)
}

// lastSegment returns the path of the highest-offset segment file.
func lastSegment(t *testing.T, root, source string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(root, sourceDir(root, source), "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments found: %v", err)
	}
	last := segs[0]
	for _, s := range segs[1:] {
		if s > last {
			last = s
		}
	}
	return last
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	// Cut the final segment at every byte position inside its last
	// record: recovery must always surface the longest valid prefix.
	for _, cut := range []int64{1, recordHeaderLen - 1, recordHeaderLen, recordHeaderLen + 5} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Fsync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			fill(t, l, "src", 20)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			seg := lastSegment(t, dir, "src")
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			lastLen := int64(recordHeaderLen + len(payloadFor(19)))
			if err := os.Truncate(seg, fi.Size()-lastLen+cut); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{Fsync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := l2.NextOffset("src"); got != 19 {
				t.Fatalf("NextOffset after torn tail = %d, want 19", got)
			}
			wantDense(t, collect(t, l2, "src", 0, 19), 0, 19)
			// The log must accept new appends at the recovered head.
			fill(t, l2, "src", 2)
			wantDense(t, collect(t, l2, "src", 0, 21), 0, 21)
		})
	}
}

func TestRecoveryDropsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, "src", 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the payload of the last record.
	seg := lastSegment(t, dir, "src")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextOffset("src"); got != 9 {
		t.Fatalf("NextOffset after CRC corruption = %d, want 9", got)
	}
	wantDense(t, collect(t, l2, "src", 0, 9), 0, 9)
}

func TestRecoveryDropsSegmentsBehindCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, "src", 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, sourceDir(dir, "src"), "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Corrupt a record in the middle segment: everything behind it must
	// be removed so the surviving log is a clean prefix.
	mid := segs[len(segs)/2]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(Magic)+recordHeaderLen] ^= 0xFF
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 256, Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	head := l2.NextOffset("src")
	if head == 0 || head >= 40 {
		t.Fatalf("NextOffset after mid-log corruption = %d, want a proper prefix", head)
	}
	wantDense(t, collect(t, l2, "src", 0, head), 0, head)
	after, _ := filepath.Glob(filepath.Join(dir, sourceDir(dir, "src"), "*.seg"))
	if len(after) >= len(segs) {
		t.Fatalf("segments behind the corruption were kept (%d of %d)", len(after), len(segs))
	}
	// And the recovered head accepts appends.
	fill(t, l2, "src", 3)
	wantDense(t, collect(t, l2, "src", 0, head+3), 0, head+3)
}

func TestFsyncPolicies(t *testing.T) {
	for _, p := range []Policy{SyncNever, SyncInterval, SyncAlways} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Fsync: p, Interval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			fill(t, l, "src", 10)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{Fsync: p})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := l2.NextOffset("src"); got != 10 {
				t.Fatalf("NextOffset = %d, want 10", got)
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"never", SyncNever}, {"interval", SyncInterval}, {"always", SyncAlways}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}

func TestConcurrentReadDuringAppend(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 512, Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, "src", 30)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := l.Append("src", payloadFor(30+i)); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
		}
	}()
	// Readers race the appender; each must still see a consistent dense
	// window bounded by its own snapshot.
	for i := 0; i < 50; i++ {
		head := l.NextOffset("src")
		wantDense(t, collect(t, l, "src", 0, head), 0, head)
	}
	<-done
	wantDense(t, collect(t, l, "src", 0, 230), 0, 230)
}

func TestSources(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, "b", 1)
	fill(t, l, "a", 1)
	got := l.Sources()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Sources = %v", got)
	}
}

// TestBackgroundSyncFailureReported makes the background fsync fail by
// closing the active segment under the log, and checks the failure is
// neither swallowed nor forgotten: the segment stays dirty for the next
// tick, the source's next Append reports it (writing nothing), and so
// does Close — also when the retried sync later succeeds.
func TestBackgroundSyncFailureReported(t *testing.T) {
	// An hour-long interval keeps the ticker out of the way; the test
	// drives syncDirty itself.
	opts := Options{Fsync: SyncInterval, Interval: time.Hour}
	breakSync := func(l *Log) *sourceLog {
		t.Helper()
		fill(t, l, "s", 3)
		sl := l.get("s")
		sl.mu.Lock()
		sl.f.Close()
		sl.mu.Unlock()
		l.syncDirty()
		sl.mu.Lock()
		defer sl.mu.Unlock()
		if !sl.dirty {
			t.Fatal("failed sync cleared the dirty flag")
		}
		if !errors.Is(sl.syncErr, os.ErrClosed) {
			t.Fatalf("sync failure not kept: %v", sl.syncErr)
		}
		return sl
	}

	l, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	breakSync(l)
	if _, err := l.Append("s", payloadFor(3)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Append after a failed sync = %v, want the sync failure", err)
	}
	if got := l.NextOffset("s"); got != 3 {
		t.Fatalf("failed Append advanced the log to %d", got)
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close after a failed sync returned nil")
	}

	// The retry succeeds on a healthy handle, but the lost sync is still
	// owed to the caller: Close reports it.
	dir := t.TempDir()
	l, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sl := breakSync(l)
	f, err := os.OpenFile(lastSegment(t, dir, "s"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	sl.mu.Lock()
	sl.f = f
	sl.mu.Unlock()
	l.syncDirty()
	sl.mu.Lock()
	dirty := sl.dirty
	sl.mu.Unlock()
	if dirty {
		t.Fatal("retried sync did not clear the dirty flag")
	}
	if err := l.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close = %v, want the unreported sync failure", err)
	}
}
