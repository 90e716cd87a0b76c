package tcam

import (
	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
)

// Machine is a Program compiled for repeated execution: Run's semantics
// (Figure 6's Impl(I)) with field names resolved to slots of a shared
// pir.Slots namespace and every (table, state) target resolved to a state
// index ahead of time. Runs write into a reusable pir.Outcome that is
// comparable with outcomes of any machine compiled against the same
// namespace — in particular the specification's pir.Machine.
type Machine struct {
	ns     *pir.Slots
	start  int // index of state (0,0), or missingState
	states []machineState
}

type machineState struct {
	id      int // State.ID, as reported in Result.Path
	key     []pir.SlotKey
	entries []machineEntry
}

// machineEntry is an Entry with its value pre-masked and its target
// resolved.
type machineEntry struct {
	value, mask uint64
	extracts    []pir.SlotExtract
	next        int
}

// Resolved targets: a state index, or one of these. A target naming a
// state the program does not have rejects, as Run does when its Lookup
// fails on the next iteration.
const (
	nextAccept   = -1
	nextReject   = -2
	missingState = -3
)

// NewMachine compiles p against the namespace ns. Extraction widths come
// from p.Spec, as in Run.
func NewMachine(p *Program, ns *pir.Slots) *Machine {
	resolve := func(t Target) int {
		switch t.Kind {
		case Accept:
			return nextAccept
		case Reject:
			return nextReject
		}
		if i := p.index(t.Table, t.State); i >= 0 {
			return i
		}
		return missingState
	}
	m := &Machine{ns: ns, start: resolve(To(0, 0)), states: make([]machineState, len(p.States))}
	for i := range p.States {
		st := &p.States[i]
		ms := &m.states[i]
		ms.id = st.ID
		ms.key = ns.Key(st.Key)
		for _, e := range st.Entries {
			me := machineEntry{value: e.Value & e.Mask, mask: e.Mask, next: resolve(e.Next)}
			for _, x := range e.Extracts {
				me.extracts = append(me.extracts, ns.Extract(p.Spec, x))
			}
			ms.entries = append(ms.entries, me)
		}
	}
	return m
}

// Exec runs the machine on input for at most maxIter iterations (<= 0
// selects pir.DefaultMaxIterations) and writes the run into o. It agrees
// with Run: verdicts, dictionaries (via Outcome.Same) and, with
// o.KeepPath set, paths.
func (m *Machine) Exec(input bitstream.Bits, maxIter int, o *pir.Outcome) {
	if maxIter <= 0 {
		maxIter = pir.DefaultMaxIterations
	}
	o.Begin(m.ns)
	cur, pos := m.start, 0
	for iter := 0; iter < maxIter && cur >= 0; iter++ {
		st := &m.states[cur]
		o.Visit(st.id)
		key := o.Key(st.key, input, pos)
		cur = missingState // no entry matches: the packet falls off the TCAM
		for i := range st.entries {
			e := &st.entries[i]
			if key&e.mask != e.value {
				continue
			}
			for j := range e.extracts {
				pos = o.Extract(&e.extracts[j], input, pos)
			}
			cur = e.next
			break
		}
	}
	if cur == nextAccept {
		o.Accepted = true
	} else {
		o.Rejected = true
	}
}
