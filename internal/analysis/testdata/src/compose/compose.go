// Package compose proves the v1 directive surface still composes with the
// v2 dataflow analyzers: one //recclint:holds annotation satisfies both
// lockguard (v1, field guarding) and lockorder (v2, entry lock set); one
// //recclint:ignore line silences a v2 finding exactly like a v1 finding;
// //recclint:lockrank and ctxroot coexist in one file. The whole suite must
// report zero findings here.
package compose

import (
	"context"
	"sync"
)

// The intended global order: the outer pair lock before the inner one.
//
//recclint:lockrank compose.pair.mu < compose.pair.inner

type pair struct {
	mu    sync.Mutex
	inner sync.Mutex
	n     int // guarded by mu
}

// bump takes both locks in the declared order: clean for lockguard (mu held
// around the n access) and for lockorder (edge mu < inner matches the rank).
func (p *pair) bump() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inner.Lock()
	p.n++
	p.inner.Unlock()
}

// bumpHeld documents that callers already hold mu. The single v1 holds
// directive does double duty: lockguard accepts the unlocked n access, and
// lockorder seeds its entry set with compose.pair.mu, so acquiring inner
// here is checked against (and satisfies) the declared rank.
//
//recclint:holds mu
func (p *pair) bumpHeld() {
	p.inner.Lock()
	p.n++
	p.inner.Unlock()
}

// detached demonstrates a v1-style suppression silencing a v2 analyzer: the
// root context would be a ctxflow finding, and the ignore line carries the why.
func detached() context.Context {
	//recclint:ignore ctxflow fixture: the suppression must compose with v2 findings
	return context.Background()
}

// worker shows ctxroot composing in the same file: a detached root context
// below the server layer, justified in place.
//
//recclint:ctxroot fixture: the worker owns its lifetime, no caller to inherit from
func worker() context.Context {
	return context.Background()
}
