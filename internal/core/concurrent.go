package core

import (
	"fmt"
	"io"
	"sync"

	"wmsketch/internal/stream"
)

// Concurrent wraps any Learner with a reader/writer lock so that one
// writer (the update path) and many readers (Estimate/TopK/Predict
// queries) can share a sketch safely across goroutines. It is the
// conservative choice for one model that must be trained and queried
// with strict consistency; Sharded is the multi-core trainer, and serves
// queries from a periodically merged snapshot instead.
type Concurrent struct {
	mu sync.RWMutex
	l  stream.Learner
}

// NewConcurrent wraps l.
func NewConcurrent(l stream.Learner) *Concurrent {
	if l == nil {
		panic("core: nil learner")
	}
	return &Concurrent{l: l}
}

// Update applies one gradient step under the write lock.
func (c *Concurrent) Update(x stream.Vector, y int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.l.Update(x, y)
}

// Predict evaluates the margin under the read lock.
func (c *Concurrent) Predict(x stream.Vector) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.l.Predict(x)
}

// Estimate queries one weight under the read lock.
func (c *Concurrent) Estimate(i uint32) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.l.Estimate(i)
}

// TopK retrieves the heaviest weights under the read lock.
func (c *Concurrent) TopK(k int) []stream.Weighted {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.l.TopK(k)
}

// WriteTo checkpoints the wrapped learner under the read lock (writers are
// excluded, concurrent queries are not). It errors when the wrapped learner
// is not serializable.
func (c *Concurrent) WriteTo(w io.Writer) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	wt, ok := c.l.(io.WriterTo)
	if !ok {
		return 0, fmt.Errorf("core: learner %T is not serializable", c.l)
	}
	return wt.WriteTo(w)
}

// Steps reports the wrapped learner's update count when it exposes one
// (all learners in core do), and 0 otherwise.
func (c *Concurrent) Steps() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if s, ok := c.l.(interface{ Steps() int64 }); ok {
		return s.Steps()
	}
	return 0
}

// MemoryBytes reports the wrapped learner's footprint.
func (c *Concurrent) MemoryBytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.l.MemoryBytes()
}

var _ stream.Learner = (*Concurrent)(nil)
