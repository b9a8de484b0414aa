package broker

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"gasf/internal/telemetry"
)

// Delivery frames use the transport framing of internal/server's
// protocol, so a networked writer ships a frame's bytes unchanged and an
// embedded subscription decodes the very same bytes:
//
//	frame:  u8 kind | u32 payload length (little-endian) | payload
//
// A durable broker sends KindTransmissionOff frames, whose payload is the
// u64 little-endian log offset followed by the wire transmission; a
// non-durable one sends KindTransmission frames carrying the bare
// transmission.
const (
	// FrameHeaderLen is the encoded size of a frame header.
	FrameHeaderLen = 1 + 4
	// KindTransmission tags a frame carrying one labeled transmission.
	KindTransmission byte = 6
	// KindTransmissionOff tags a frame carrying a log offset and one
	// labeled transmission.
	KindTransmissionOff byte = 11
)

// BeginFrame appends a frame header with a placeholder length; EndFrame
// patches the length once the payload has been appended after it.
func BeginFrame(buf []byte, kind byte) []byte {
	return append(buf, kind, 0, 0, 0, 0)
}

// EndFrame patches the payload length of the frame that starts at buf[0].
func EndFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[1:FrameHeaderLen], uint32(len(buf)-FrameHeaderLen))
	return buf
}

// Frame is one encoded delivery, shared immutably across every member
// queue it fans out to. The sink encodes a released transmission exactly
// once, sets the reference count to the fan-out width, and each consumer
// releases its reference after writing, decoding or dropping the frame;
// the last release returns the buffer to the pool.
//
// Ownership rule (DESIGN.md §8): a holder may read the bytes until it
// calls Release, and never after; nobody mutates them once the frame is
// shared.
type Frame struct {
	buf  []byte
	refs atomic.Int32
	// ts is the encoded tuple's source timestamp (UnixNano); the
	// delivery point subtracts it from its own clock to observe delivery
	// latency. Zero means "do not observe" (telemetry disabled).
	ts int64
	// src points at the originating group's latency estimator pair, so
	// per-group quantiles are fed at the delivery point without a
	// registry lookup. Nil when telemetry is disabled.
	src *telemetry.LatencyPair
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// FrameStats is the pool-traffic ledger behind the leak-detector tests:
// when Enabled, every frame checkout and final release is counted, so a
// quiesced broker or server must show Gets == Puts — any imbalance is a
// reference leaked (or double-released) somewhere in the fan-out, drop,
// eviction or teardown paths. Disabled (the default) it costs one
// predictable-branch atomic load per event.
var FrameStats struct {
	Enabled    atomic.Bool
	Gets, Puts atomic.Uint64
}

// getFrame takes an empty frame from the pool.
func getFrame() *Frame {
	if FrameStats.Enabled.Load() {
		FrameStats.Gets.Add(1)
	}
	fr := framePool.Get().(*Frame)
	fr.buf = fr.buf[:0]
	fr.ts = 0
	fr.src = nil
	return fr
}

// NewFrame builds a pooled frame from an already-encoded payload — a
// relay leg's copy of an upstream frame. ts and src feed the delivery
// latency estimators as for a sink-encoded frame.
func NewFrame(kind byte, payload []byte, ts int64, src *telemetry.LatencyPair) *Frame {
	fr := getFrame()
	fr.buf = EndFrame(append(BeginFrame(fr.buf, kind), payload...))
	fr.ts, fr.src = ts, src
	return fr
}

// Bytes returns the whole encoded frame, header included.
func (fr *Frame) Bytes() []byte { return fr.buf }

// Retain sets the fan-out count before the frame is shared. It must be
// called exactly once, before any send.
func (fr *Frame) Retain(n int) { fr.refs.Store(int32(n)) }

// Release drops one reference, recycling the frame when it was the last.
func (fr *Frame) Release() {
	if fr.refs.Add(-1) == 0 {
		if FrameStats.Enabled.Load() {
			FrameStats.Puts.Add(1)
		}
		framePool.Put(fr)
	}
}

// transmission splits the frame into its wire transmission and its log
// offset (0 for an offset-less frame).
func (fr *Frame) transmission() (payload []byte, off uint64) {
	payload = fr.buf[FrameHeaderLen:]
	if fr.buf[0] == KindTransmissionOff && len(payload) >= 8 {
		off = binary.LittleEndian.Uint64(payload)
		payload = payload[8:]
	}
	return payload, off
}
