// Package memo is SCAN's one build-once cache: a value that is costly to
// make (a kernel index over a reference, a context part's hash, a worker's
// prepared stage) is built once under its key, and the latest few keys are
// kept.
package memo

import (
	"slices"
	"sync"
)

// Memo remembers at most Max loaders, the least recently used first out.
// The zero value with Max set is ready; it is safe for concurrent use.
type Memo[K comparable, V any] struct {
	// Max bounds the entries held (below 1, one is held); a Get past it
	// forgets the least recently used one.
	Max int

	mu      sync.Mutex
	entries []*entry[K, V] // least recently used first
}

type entry[K comparable, V any] struct {
	key  K
	load func() (V, error)
}

// Get returns the loader remembered under key, or remembers one that runs
// build. However many goroutines call a loader, build runs once, on the
// first call; the others wait for its result. A loader keeps answering
// after its entry is evicted. A build that fails is forgotten, so the next
// Get of its key builds again.
func (m *Memo[K, V]) Get(key K, build func() (V, error)) func() (V, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := slices.IndexFunc(m.entries, func(e *entry[K, V]) bool { return e.key == key }); i >= 0 {
		e := m.entries[i]
		m.entries = append(slices.Delete(m.entries, i, i+1), e)
		return e.load
	}
	if len(m.entries) >= max(m.Max, 1) {
		m.entries = slices.Delete(m.entries, 0, 1)
	}
	e := &entry[K, V]{key: key}
	e.load = sync.OnceValues(func() (V, error) {
		v, err := build()
		if err != nil {
			m.mu.Lock()
			m.entries = slices.DeleteFunc(m.entries, func(o *entry[K, V]) bool { return o == e })
			m.mu.Unlock()
		}
		return v, err
	})
	m.entries = append(m.entries, e)
	return e.load
}
