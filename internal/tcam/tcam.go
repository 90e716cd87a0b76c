// Package tcam models the TCAM-based parser implementations that
// ParserHawk generates (§3, §4).
//
// A Program is a set of implementation states, each owning a transition-key
// composition and an ordered list of ternary entries. Entry order encodes
// TCAM priority: the first matching entry fires. Each entry carries its own
// extraction actions and its transition target, matching the row format
// (Condition, ExtractSet, Tran) of Figure 6.
//
// Unlike the specification FSM (internal/pir), an implementation state's
// condition is evaluated *before* its extractions: the key may reference
// only fields extracted in earlier iterations, or raw lookahead bits ahead
// of the current cursor. This cursor/extraction phase shift is exactly what
// makes parser compilation non-trivial.
package tcam

import (
	"fmt"
	"strings"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
)

// TargetKind discriminates entry transition targets.
type TargetKind int

// Entry transition target kinds.
const (
	ToState TargetKind = iota // jump to (Table, State)
	Accept
	Reject
)

// Target is the Tran field of a TCAM row: the table and state to visit
// next, or a terminal outcome.
type Target struct {
	Kind  TargetKind
	Table int // destination TCAM table (pipeline stage on the IPU)
	State int // destination state id within that table
}

// AcceptTarget and RejectTarget are the terminal targets.
var (
	AcceptTarget = Target{Kind: Accept}
	RejectTarget = Target{Kind: Reject}
)

// To returns a Target for table t, state s.
func To(t, s int) Target { return Target{Kind: ToState, Table: t, State: s} }

func (t Target) String() string {
	switch t.Kind {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("(%d,%d)", t.Table, t.State)
	}
}

// Entry is one TCAM row. The entry fires when key & Mask == Value & Mask
// evaluated over its state's key composition.
type Entry struct {
	Value, Mask uint64
	Extracts    []pir.Extract // fields deposited when the entry fires, in order
	Next        Target
}

// State is one implementation parser state: a key composition shared by its
// entries, and the prioritized entries themselves. A state with no matching
// entry rejects the packet, so synthesizers emit an explicit wildcard entry
// for default-accept behaviour — keeping the paper's "one transition arrow,
// one TCAM entry" accounting honest.
type State struct {
	Table   int
	ID      int
	Key     []pir.KeyPart
	Entries []Entry
}

// KeyWidth returns the state's transition-key width in bits.
func (s *State) KeyWidth() int {
	w := 0
	for _, p := range s.Key {
		w += p.BitWidth()
	}
	return w
}

// Program is a complete TCAM parser implementation for one specification.
type Program struct {
	Spec   *pir.Spec // field declarations and reference semantics
	States []State
}

// Lookup returns the state at (table, id), or nil.
func (p *Program) Lookup(table, id int) *State {
	if i := p.index(table, id); i >= 0 {
		return &p.States[i]
	}
	return nil
}

// index returns the index of the first state at (table, id), or -1.
func (p *Program) index(table, id int) int {
	for i := range p.States {
		if p.States[i].Table == table && p.States[i].ID == id {
			return i
		}
	}
	return -1
}

// Resources summarises hardware resource consumption.
type Resources struct {
	Entries     int // total TCAM entries (the Tofino budget metric)
	Stages      int // number of distinct tables used (the IPU budget metric)
	MaxKeyWidth int // widest transition key of any state
	MaxEntries  int // largest entry count in a single stage
	States      int
}

// Resources computes the program's resource usage.
func (p *Program) Resources() Resources {
	r := Resources{States: len(p.States)}
	stage := map[int]int{}
	for i := range p.States {
		s := &p.States[i]
		r.Entries += len(s.Entries)
		stage[s.Table] += len(s.Entries)
		if kw := s.KeyWidth(); kw > r.MaxKeyWidth {
			r.MaxKeyWidth = kw
		}
	}
	r.Stages = len(stage)
	for _, n := range stage {
		if n > r.MaxEntries {
			r.MaxEntries = n
		}
	}
	return r
}

// Run interprets the program on input for at most maxIter iterations,
// implementing the Impl(I) pseudo-code of Figure 6. maxIter <= 0 selects
// pir.DefaultMaxIterations.
func (p *Program) Run(input bitstream.Bits, maxIter int) pir.Result {
	res, _ := p.RunFrom(input, 0, bitstream.Dict{}, maxIter)
	return res
}

// RunFrom interprets the program with the cursor starting at pos and the
// dictionary pre-seeded — the resumption primitive interleaved
// architectures need (Figure 2(c)): a later sub-parser continues where
// the previous one accepted, seeing fields the match-action pipeline may
// have rewritten. It returns the result and the final cursor position.
func (p *Program) RunFrom(input bitstream.Bits, pos int, dict bitstream.Dict, maxIter int) (pir.Result, int) {
	if maxIter <= 0 {
		maxIter = pir.DefaultMaxIterations
	}
	res := pir.Result{Dict: dict.Clone()}
	cur := To(0, 0)
	for iter := 0; iter < maxIter; iter++ {
		st := p.Lookup(cur.Table, cur.State)
		if st == nil {
			res.Rejected = true
			return res, pos
		}
		res.Path = append(res.Path, cur.State)
		key := p.keyValue(st, res.Dict, input, pos)
		matched := false
		for ei := range st.Entries {
			e := &st.Entries[ei]
			if key&e.Mask != e.Value&e.Mask {
				continue
			}
			matched = true
			for _, x := range e.Extracts {
				w := p.extractWidth(x, res.Dict)
				res.Dict[x.Field] = input.Slice(pos, w)
				pos += w
			}
			res.Consumed = pos
			cur = e.Next
			break
		}
		if !matched {
			res.Rejected = true
			return res, pos
		}
		switch cur.Kind {
		case Accept:
			res.Accepted = true
			return res, pos
		case Reject:
			res.Rejected = true
			return res, pos
		}
	}
	res.Rejected = true
	return res, pos
}

func (p *Program) keyValue(st *State, dict bitstream.Dict, input bitstream.Bits, pos int) uint64 {
	var key uint64
	for _, part := range st.Key {
		w := part.BitWidth()
		var v uint64
		if part.Lookahead {
			v = input.Uint(pos+part.Skip, w)
		} else {
			v = dict[part.Field].Uint(part.Lo, w)
		}
		key = key<<uint(w) | v
	}
	return key
}

func (p *Program) extractWidth(e pir.Extract, dict bitstream.Dict) int {
	f, _ := p.Spec.Field(e.Field)
	if e.LenField == "" {
		return f.Width
	}
	lf, _ := p.Spec.Field(e.LenField)
	n := int(dict[e.LenField].Uint(0, lf.Width))*e.LenScale + e.LenBias
	if n < 0 {
		n = 0
	}
	if n > f.Width {
		n = f.Width
	}
	return n
}

// String renders the program as a table of TCAM rows, one row per entry,
// in the style of Table 1.
func (p *Program) String() string {
	var sb strings.Builder
	for i := range p.States {
		s := &p.States[i]
		parts := make([]string, len(s.Key))
		for j, k := range s.Key {
			parts[j] = k.String()
		}
		fmt.Fprintf(&sb, "TID:%d SID:%d key=(%s)\n", s.Table, s.ID, strings.Join(parts, ","))
		for ei, e := range s.Entries {
			var xs []string
			for _, x := range e.Extracts {
				xs = append(xs, x.Field)
			}
			fmt.Fprintf(&sb, "  EID:%d  %0*b &&& %0*b  extract{%s}  -> %s\n",
				ei, s.KeyWidth(), e.Value, s.KeyWidth(), e.Mask, strings.Join(xs, ","), e.Next)
		}
	}
	return sb.String()
}
