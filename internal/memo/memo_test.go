package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetBuildsOnce: concurrent Gets of one key, and concurrent calls of
// the loaders they return, run build once and all see its value.
func TestGetBuildsOnce(t *testing.T) {
	m := &Memo[string, int]{Max: 2}
	var builds atomic.Int32
	release := make(chan struct{})
	build := func() (int, error) {
		builds.Add(1)
		<-release
		return 42, nil
	}
	var asked, wg sync.WaitGroup
	got := make([]int, 16)
	for i := range got {
		asked.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			load := m.Get("ref", build)
			asked.Done()
			v, err := load()
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	asked.Wait() // every Get returns before the first build may finish
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
}

// TestEvictsLeastRecentlyUsed: past Max, the key used longest ago goes, a
// hit counts as a use, and an evicted loader still answers.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	m := &Memo[string, string]{Max: 2}
	builds := map[string]int{}
	get := func(k string) func() (string, error) {
		return m.Get(k, func() (string, error) {
			builds[k]++
			return "v" + k, nil
		})
	}
	a := get("a")
	if v, _ := a(); v != "va" {
		t.Fatalf("a = %q", v)
	}
	get("b")()
	get("a")() // a is now the most recently used
	get("c")() // evicts b
	if v, err := a(); v != "va" || err != nil {
		t.Fatalf("loader a = %q, %v", v, err)
	}
	get("a")()
	get("b")()
	if builds["a"] != 1 || builds["b"] != 2 || builds["c"] != 1 {
		t.Fatalf("builds = %v, want a once, b twice (evicted), c once", builds)
	}
	// c, used before the last a and b, has gone, and so goes a.
	get("c")()
	if builds["c"] != 2 {
		t.Fatalf("builds = %v, want c rebuilt after eviction", builds)
	}
	if v, err := a(); v != "va" || err != nil {
		t.Fatalf("loader a after its eviction = %q, %v", v, err)
	}
}

// TestFailedBuildIsForgotten: a build that fails is not remembered, so the
// next Get builds again, and a failure does not evict a live key.
func TestFailedBuildIsForgotten(t *testing.T) {
	m := &Memo[int, int]{Max: 2}
	fail := errors.New("fetch failed")
	builds := 0
	build := func() (int, error) {
		builds++
		if builds == 1 {
			return 0, fail
		}
		return 7, nil
	}
	if _, err := m.Get(1, build)(); !errors.Is(err, fail) {
		t.Fatalf("first build err = %v, want %v", err, fail)
	}
	if v, err := m.Get(1, build)(); v != 7 || err != nil {
		t.Fatalf("second Get = %d, %v; want 7 from a new build", v, err)
	}
	if v, err := m.Get(1, build)(); v != 7 || err != nil || builds != 2 {
		t.Fatalf("third Get = %d, %v after %d builds; want the remembered 7 after 2", v, err, builds)
	}
}
