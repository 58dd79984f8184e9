// Package history implements serial execution histories and the augmented
// histories of Section 3: sequences of interleaved transactions and database
// states, beginning and ending with a state. It also provides the reads-from
// relation and its transitive closure (the affected set AG), and the
// final-state equivalence predicate (the equivalence notion every rewriting
// step must preserve).
package history

import (
	"fmt"
	"strings"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// Entry is one position of a history: a transaction together with its fix.
// Ordinary serializable histories carry the empty fix at every position
// (Section 3); rewriting introduces non-empty fixes.
type Entry struct {
	T   *tx.Transaction
	Fix tx.Fix
}

// History is a serial history H^s: an ordered list of entries.
type History struct {
	Entries []Entry
}

// New builds a history over the given transactions, all with empty fixes.
func New(txns ...*tx.Transaction) *History {
	h := &History{Entries: make([]Entry, len(txns))}
	for i, t := range txns {
		h.Entries[i] = Entry{T: t}
	}
	return h
}

// Len returns the number of transactions.
func (h *History) Len() int { return len(h.Entries) }

// Txn returns the i-th transaction.
func (h *History) Txn(i int) *tx.Transaction { return h.Entries[i].T }

// Append adds a transaction with an empty fix and returns h.
func (h *History) Append(t *tx.Transaction) *History {
	h.Entries = append(h.Entries, Entry{T: t})
	return h
}

// Clone copies the history (entries and fixes; transactions are shared).
func (h *History) Clone() *History {
	c := &History{Entries: make([]Entry, len(h.Entries))}
	for i, e := range h.Entries {
		c.Entries[i] = Entry{T: e.T, Fix: e.Fix.Clone()}
	}
	return c
}

// Prefix returns a new history holding the first n entries.
func (h *History) Prefix(n int) *History {
	c := &History{Entries: make([]Entry, n)}
	copy(c.Entries, h.Entries[:n])
	return c
}

// Suffix returns a new history holding the entries from position n on.
func (h *History) Suffix(n int) *History {
	c := &History{Entries: make([]Entry, len(h.Entries)-n)}
	copy(c.Entries, h.Entries[n:])
	return c
}

// IDs returns the transaction IDs in order.
func (h *History) IDs() []string {
	ids := make([]string, len(h.Entries))
	for i, e := range h.Entries {
		ids[i] = e.T.ID
	}
	return ids
}

// IndexOf returns the position of the transaction with the given ID, or -1.
func (h *History) IndexOf(id string) int {
	for i, e := range h.Entries {
		if e.T.ID == id {
			return i
		}
	}
	return -1
}

// SameTransactionSet reports whether the two histories are over exactly the
// same set of transaction instances (by pointer identity).
func (h *History) SameTransactionSet(o *History) bool {
	if h.Len() != o.Len() {
		return false
	}
	seen := make(map[*tx.Transaction]int, h.Len())
	for _, e := range h.Entries {
		seen[e.T]++
	}
	for _, e := range o.Entries {
		seen[e.T]--
		if seen[e.T] < 0 {
			return false
		}
	}
	return true
}

// String renders the history as "T1 T2^{x} T3 ...", marking non-empty fixes.
func (h *History) String() string {
	parts := make([]string, len(h.Entries))
	for i, e := range h.Entries {
		if e.Fix.IsEmpty() {
			parts[i] = e.T.ID
		} else {
			parts[i] = e.T.ID + "^" + e.Fix.String()
		}
	}
	return strings.Join(parts, " ")
}

// Augmented is an augmented history (Section 3): the history decorated with
// explicit database states s0 T1 s1 T2 s2 .... It holds them sparsely:
// Origin is s0, Effects[i] is the effect log of the i-th execution, and
// FinalState is the state after the last transaction. Every interior state
// follows from Origin and the write images in Effects, so StateAt and the
// point reads ValueBefore/ValueAfter materialize them on demand.
//
// Origin and FinalState are shared, read-only views: Run keeps the caller's
// s0 as the Origin, and a mobile node hands out its live replica as the
// FinalState. Base-history views a merge runs against (Hb) carry only H and
// Effects; their state accessors panic instead of reading zeros.
type Augmented struct {
	H          *History
	Origin     model.State
	Effects    []*tx.Effect
	FinalState model.State
}

// Run executes the history serially from s0 and returns the augmented
// history. s0 is not modified: it is kept, by reference, as the Origin, so
// the caller must not mutate it while the result is in use. The final
// state is the one working copy the run executes on.
func Run(h *History, s0 model.State) (*Augmented, error) {
	if s0 == nil {
		s0 = model.NewState() // the empty state: every item zero
	}
	a := &Augmented{
		H:       h,
		Origin:  s0,
		Effects: make([]*tx.Effect, h.Len()),
	}
	cur := s0.Clone()
	for i, e := range h.Entries {
		eff, err := e.T.ExecInPlace(cur, e.Fix)
		if err != nil {
			return nil, fmt.Errorf("history: position %d (%s): %w", i, e.T.ID, err)
		}
		a.Effects[i] = eff
	}
	a.FinalState = cur
	return a, nil
}

// Final returns the final state of the augmented history. The state is
// shared: callers that modify it must Clone first.
func (a *Augmented) Final() model.State {
	if a.FinalState == nil {
		panic("history: Final of an augmented view without states")
	}
	return a.FinalState
}

// StateAt materializes s_i, the state immediately preceding transaction i
// (StateAt(H.Len()) is the final state), as a fresh copy the caller owns.
func (a *Augmented) StateAt(i int) model.State {
	a.mustHaveOrigin()
	s := a.Origin.Clone()
	for _, eff := range a.Effects[:i] {
		s.Apply(eff.Writes)
	}
	return s
}

// ValueBefore returns the value of it in the state immediately preceding
// transaction i: the write image of its last writer before i, or its
// origin value when nothing before i wrote it.
func (a *Augmented) ValueBefore(i int, it model.Item) model.Value {
	a.mustHaveOrigin()
	for j := i - 1; j >= 0; j-- {
		if v, ok := a.Effects[j].Writes[it]; ok {
			return v
		}
	}
	return a.Origin.Get(it)
}

// ValueAfter returns the value of it in the state immediately following
// transaction i.
func (a *Augmented) ValueAfter(i int, it model.Item) model.Value {
	return a.ValueBefore(i+1, it)
}

func (a *Augmented) mustHaveOrigin() {
	if a.Origin == nil {
		panic("history: state read on an augmented view without an origin")
	}
}

// FinalStateEquivalent reports whether h1 and h2, executed from s0, are
// final state equivalent (Section 3): they are over the same set of
// transactions and produce identical final states. Execution errors
// propagate.
func FinalStateEquivalent(h1, h2 *History, s0 model.State) (bool, error) {
	if !h1.SameTransactionSet(h2) {
		return false, nil
	}
	a1, err := Run(h1, s0)
	if err != nil {
		return false, fmt.Errorf("history: run h1: %w", err)
	}
	a2, err := Run(h2, s0)
	if err != nil {
		return false, fmt.Errorf("history: run h2: %w", err)
	}
	return a1.Final().Equal(a2.Final()), nil
}
