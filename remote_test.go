package gasf

import (
	"context"
	"testing"
	"time"
)

// TestSourceReconnectWindow drives the publisher's republish window
// through its redial against a durable server, whose resume hint names
// the highest sequence its log holds. An increasing window is trimmed to
// what the log lacks; a window whose sequences are not increasing, or
// one truncated at sourceWindowCap, cannot be trimmed safely and is
// republished whole; a successful Sync clears the window and the
// truncation mark.
func TestSourceReconnectWindow(t *testing.T) {
	srv, err := StartServer(ServerConfig{DataDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := Dial(srv.Addr().String(), WithReconnect(Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer r.Close(ctx)
	schema, err := NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	opened, err := r.OpenSource(ctx, "src", schema)
	if err != nil {
		t.Fatal(err)
	}
	src := opened.(*remoteSource)
	// A live member makes each release durable; every tuple of a unit
	// step releases under this spec, so the log ends up holding seqs 0..8
	// (9 is held back until the finish flushes it).
	if _, err := r.Subscribe(ctx, "app", "src", "DC1(v, 0.5, 0)"); err != nil {
		t.Fatal(err)
	}
	ts := 0
	tuples := func(seqs ...int) []*Tuple {
		out := make([]*Tuple, len(seqs))
		for i, seq := range seqs {
			ts++
			tp, err := NewTuple(schema, seq, time.Unix(1, 0).Add(time.Duration(ts)*time.Millisecond), []float64{float64(ts)})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = tp
		}
		return out
	}
	if err := src.PublishBatch(ctx, tuples(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)); err != nil {
		t.Fatal(err)
	}
	if err := src.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// The log holds up to seq 8 or 9 (the redial's goodbye finishes the
	// old session, flushing 9, perhaps before the new handshake reads the
	// hint), so every window below is at or under the hint.
	for _, c := range []struct {
		name      string
		window    []int
		truncated bool
		replayed  int
	}{
		{"increasing, trimmed by the hint", []int{2, 3, 4, 5}, false, 0},
		{"not increasing, republished whole", []int{4, 2, 3}, false, 3},
		{"truncated, republished whole", []int{2, 3, 4, 5}, true, 4},
	} {
		src.mu.Lock()
		src.window, src.truncated = tuples(c.window...), c.truncated
		before := srv.Counters().TuplesIn
		err := src.redialReplayLocked(ctx)
		src.mu.Unlock()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := src.Sync(ctx); err != nil {
			t.Fatalf("%s: sync: %v", c.name, err)
		}
		if got := srv.Counters().TuplesIn - before; got != uint64(c.replayed) {
			t.Errorf("%s: republished %d tuples, want %d", c.name, got, c.replayed)
		}
		if len(src.window) != 0 || src.truncated {
			t.Errorf("%s: after Sync the window holds %d tuples (truncated %v)", c.name, len(src.window), src.truncated)
		}
	}

	// Remembering past the cap slides the oldest tuples out and marks the
	// window truncated; Sync clears both.
	src.mu.Lock()
	filler := tuples(1)[0]
	for i := 0; i < 3; i++ {
		src.remember(make([]*Tuple, sourceWindowCap/2))
	}
	src.remember([]*Tuple{filler})
	n, truncated := len(src.window), src.truncated
	last := src.window[n-1]
	src.mu.Unlock()
	if n != sourceWindowCap || !truncated || last != filler {
		t.Fatalf("window past the cap: %d tuples (truncated %v, newest kept %v), want %d truncated",
			n, truncated, last == filler, sourceWindowCap)
	}
	if err := src.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if len(src.window) != 0 || src.truncated {
		t.Fatalf("after Sync the window holds %d tuples (truncated %v)", len(src.window), src.truncated)
	}
}
