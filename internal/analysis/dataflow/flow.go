package dataflow

import (
	"go/ast"
	"sort"
)

// A Flow describes one forward dataflow problem over a CFG. F is the fact
// type; facts must be treated as immutable by Transfer (copy-on-write), so
// the solver can cache block-entry facts safely.
type Flow[F any] struct {
	// Entry is the fact at function entry.
	Entry F
	// Join merges the facts of two incoming edges.
	Join func(a, b F) F
	// Equal reports fact equality; the fixed point terminates on it.
	Equal func(a, b F) bool
	// Transfer applies one statement to a fact.
	Transfer func(f F, s ast.Stmt) F
}

// Forward runs the problem to a fixed point and returns the entry fact of
// every reachable block. Analyzers that need statement-granularity facts
// (e.g. the lock set at an acquisition site) replay Transfer over a block's
// statements starting from its entry fact.
func Forward[F any](c *CFG, fl Flow[F]) map[*Block]F {
	in := make(map[*Block]F, len(c.Blocks))
	if len(c.Blocks) == 0 {
		return in
	}
	entry := c.Blocks[0]
	in[entry] = fl.Entry
	work := []*Block{entry}
	// The loop is monotone on a finite lattice, but guard against a
	// non-converging Join/Equal pair with a generous iteration cap.
	for steps := 0; len(work) > 0 && steps < 64*len(c.Blocks)*(len(c.Blocks)+2); steps++ {
		b := work[0]
		work = work[1:]
		out := in[b]
		for _, s := range b.Stmts {
			out = fl.Transfer(out, s)
		}
		for _, succ := range b.Succs {
			next := out
			cur, seen := in[succ]
			if seen {
				next = fl.Join(cur, next)
			}
			if !seen || !fl.Equal(cur, next) {
				in[succ] = next
				work = append(work, succ)
			}
		}
	}
	return in
}

// LockSet is the must-hold lock lattice: the set of locks held on every path
// reaching a program point. Keys are canonical lock names (see the lockorder
// analyzer). Sets are immutable: With/Without copy.
type LockSet map[string]bool

// With returns s ∪ {name}.
func (s LockSet) With(name string) LockSet {
	if s[name] {
		return s
	}
	out := make(LockSet, len(s)+1)
	for k := range s {
		out[k] = true
	}
	out[name] = true
	return out
}

// Without returns s \ {name}.
func (s LockSet) Without(name string) LockSet {
	if !s[name] {
		return s
	}
	out := make(LockSet, len(s))
	for k := range s {
		if k != name {
			out[k] = true
		}
	}
	return out
}

// Names returns the held locks in sorted order.
func (s LockSet) Names() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// JoinLockSets intersects two must-hold sets: a lock is held at a join point
// only if it is held on both incoming paths.
func JoinLockSets(a, b LockSet) LockSet {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make(LockSet, len(a))
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// EqualLockSets reports set equality.
func EqualLockSets(a, b LockSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
