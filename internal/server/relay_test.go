package server

import (
	"encoding/hex"
	"testing"
)

// TestSubHelloRelayVersion pins the version-3 relay handshake: the relay
// section round-trips exactly with byte-exact encoding, version-2 hellos
// keep decoding with no relay fields, and malformed relay sections are
// rejected rather than misread.
func TestSubHelloRelayVersion(t *testing.T) {
	const (
		v3Golden         = "03617070037372630e44433128762c20302e352c2030290703012a000000000000000106656467652d31"
		v3NoResumeGolden = "03617070037372630e44433128762c20302e352c2030290003000106656467652d32"
	)
	relay := func(queue int, resume bool, from uint64, edge string) ([]byte, error) {
		return EncodeSubHello(SubHello{App: "app", Source: "src", Spec: "DC1(v, 0.5, 0)",
			Queue: queue, Resume: resume, ResumeFrom: from, Relay: true, RelayEdge: edge})
	}
	enc, err := relay(7, true, 42, "edge-1")
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(enc); got != v3Golden {
		t.Fatalf("v3 hello bytes = %s, want %s", got, v3Golden)
	}
	h, err := DecodeSubHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != SubProtoVersionRelay || !h.Relay || h.RelayEdge != "edge-1" {
		t.Fatalf("relay decode: %+v", h)
	}
	if !h.Resume || h.ResumeFrom != 42 || h.App != "app" || h.Source != "src" || h.Queue != 7 {
		t.Fatalf("relay decode lost v2 fields: %+v", h)
	}

	// The non-resume form still carries the relay section.
	enc, err = relay(0, false, 0, "edge-2")
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(enc); got != v3NoResumeGolden {
		t.Fatalf("v3 non-resume hello bytes = %s, want %s", got, v3NoResumeGolden)
	}
	h, err = DecodeSubHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Resume || !h.Relay || h.RelayEdge != "edge-2" {
		t.Fatalf("non-resume relay decode: %+v", h)
	}

	// A version-2 hello decodes with the relay fields zero.
	v2, err := EncodeSubHello(SubHello{App: "app", Source: "src", Spec: "DC1(v, 0.5, 0)", Queue: 7})
	if err != nil {
		t.Fatal(err)
	}
	h, err = DecodeSubHello(v2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Relay || h.RelayEdge != "" || h.Version != SubProtoVersion {
		t.Fatalf("v2 decode grew relay fields: %+v", h)
	}

	// Encode-time rejection: a relay hello must name its edge.
	if _, err := relay(0, false, 0, ""); err == nil {
		t.Fatal("empty edge name accepted at encode")
	}

	// Decode-time rejections: trailing junk, a bad relay flag, and a
	// relay flag with no edge name behind it.
	good, err := relay(0, false, 0, "e")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSubHello(append(append([]byte(nil), good...), 0xFF)); err == nil {
		t.Fatal("trailing junk accepted")
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-3] = 2 // relay flag precedes the uvarint(1)+1-byte edge name
	if _, err := DecodeSubHello(bad); err == nil {
		t.Fatal("bad relay flag accepted")
	}
	if _, err := DecodeSubHello(good[:len(good)-2]); err == nil {
		t.Fatal("truncated relay edge name accepted")
	}
}
