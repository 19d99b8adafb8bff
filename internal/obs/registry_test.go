package obs

import (
	"sync"
	"testing"
)

func TestNilRegistryAndHandlesNoOp(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Counter("a").Add(5)
	r.Gauge("b").Add(1.5)
	r.Gauge("b").Set(2)
	if v := r.Counter("a").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	if v := r.Gauge("b").Value(); v != 0 {
		t.Fatalf("nil gauge value = %g", v)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestRegistryConcurrentAccumulation(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits").Inc()
				r.Gauge("busy").Add(0.001)
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("hits").Value(); v != 8000 {
		t.Fatalf("hits = %d, want 8000", v)
	}
	if v := r.Gauge("busy").Value(); v < 7.999 || v > 8.001 {
		t.Fatalf("busy = %g, want ~8", v)
	}
}
