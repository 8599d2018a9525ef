package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/wire"
)

// ringFrame encodes a minimal session frame for the given ring.
func ringFrame(ring wire.RingID, payload []byte) []byte {
	return wire.EncodeForwardRing(ring, &wire.Forward{From: 1, Payload: payload})
}

// settle waits up to two seconds for cond. A receiver acknowledges a
// frame before it dispatches it, so SendSync can return before the demux
// has routed (or dropped) the frame.
func settle(cond func() bool) {
	for deadline := time.Now().Add(2 * time.Second); !cond() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

func TestDemuxRoutesByRing(t *testing.T) {
	ta, tb, _ := pair(t, simnet.Profile{}, DefaultConfig())
	d := NewDemux(tb)
	var mu sync.Mutex
	got := map[wire.RingID][]string{}
	for _, ring := range []wire.RingID{0, 1, 2} {
		ring := ring
		if err := d.Register(ring, func(_ wire.NodeID, p []byte, _ *wire.Buf) {
			env, err := wire.Decode(p)
			if err != nil {
				t.Errorf("ring %v: %v", ring, err)
				return
			}
			mu.Lock()
			got[ring] = append(got[ring], string(env.Forward.Payload))
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, ring := range []wire.RingID{2, 0, 1, 0, 2} {
		if err := ta.SendSync(2, ringFrame(ring, []byte{byte('a' + i)})); err != nil {
			t.Fatal(err)
		}
	}
	settle(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got[0])+len(got[1])+len(got[2]) == 5
	})
	mu.Lock()
	defer mu.Unlock()
	want := map[wire.RingID]string{0: "bd", 1: "c", 2: "ae"}
	for ring, w := range want {
		joined := ""
		for _, s := range got[ring] {
			joined += s
		}
		if joined != w {
			t.Errorf("ring %v received %q, want %q", ring, joined, w)
		}
	}
}

// TestDemuxLegacyFramesReachRing0 covers the rolling-upgrade path: both
// the version-1 format (which ring-0 frames are emitted in, and which a
// not-yet-upgraded member would send) and the explicit version-2 ring-0
// form must route to ring 0.
func TestDemuxLegacyFramesReachRing0(t *testing.T) {
	ta, tb, _ := pair(t, simnet.Profile{}, DefaultConfig())
	d := NewDemux(tb)
	var mu sync.Mutex
	var got []string
	if err := d.Register(wire.Ring0, func(_ wire.NodeID, p []byte, _ *wire.Buf) {
		env, err := wire.Decode(p)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		got = append(got, string(env.Forward.Payload))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	v1 := ringFrame(0, []byte("legacy")) // ring-0 frames emit as version 1
	if v1[0] != wire.VersionSingle {
		t.Fatalf("ring-0 frame version = %d, want %d", v1[0], wire.VersionSingle)
	}
	if err := ta.SendSync(2, v1); err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte{wire.VersionMulti, v1[1], 0, 0, 0, 0}, v1[2:]...)
	if err := ta.SendSync(2, v2); err != nil {
		t.Fatal(err)
	}
	settle(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != "legacy" || got[1] != "legacy" {
		t.Fatalf("ring 0 received %v, want [legacy legacy]", got)
	}
}

func TestDemuxDropsUnknownRing(t *testing.T) {
	ta, tb, _ := pair(t, simnet.Profile{}, DefaultConfig())
	d := NewDemux(tb)
	var delivered atomic.Bool
	if err := d.Register(0, func(wire.NodeID, []byte, *wire.Buf) { delivered.Store(true) }); err != nil {
		t.Fatal(err)
	}
	// The transport still acknowledges the frame (delivery succeeded at
	// the transport layer); the demux drops it and counts the drop.
	if err := ta.SendSync(2, ringFrame(7, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	drops := tb.Stats().Counter(stats.MetricDemuxDrops)
	settle(func() bool { return drops.Load() > 0 })
	if delivered.Load() {
		t.Fatal("frame for ring 7 reached the ring-0 receiver")
	}
	if n := drops.Load(); n != 1 {
		t.Fatalf("demux drops = %d, want 1", n)
	}
}

func TestDemuxRegisterConflictAndUnregister(t *testing.T) {
	_, tb, _ := pair(t, simnet.Profile{}, DefaultConfig())
	d := NewDemux(tb)
	noop := func(wire.NodeID, []byte, *wire.Buf) {}
	if err := d.Register(1, noop); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(1, noop); err == nil {
		t.Fatal("double Register succeeded")
	}
	if err := d.Register(1, nil); err == nil {
		t.Fatal("nil receiver accepted")
	}
	d.Unregister(1)
	if err := d.Register(1, noop); err != nil {
		t.Fatalf("Register after Unregister: %v", err)
	}
	if got := len(d.Rings()); got != 1 {
		t.Fatalf("Rings() = %d entries, want 1", got)
	}
	if d.Transport() != tb {
		t.Fatal("Transport() did not return the wrapped transport")
	}
}
