package pir

import (
	"parserhawk/internal/bitstream"
)

// Compiled interpreters.
//
// Spec.Run is the §4 definition of Spec(I): it builds a dictionary of
// field copies per input, which is what an oracle should do and what a
// verifier enumerating 2^16 inputs per candidate cannot afford. A Machine
// is the same semantics compiled once against a Slots namespace. It
// resolves field names to slots and transition targets to indices ahead
// of time, and writes each run into a reusable Outcome. An extracted field
// is always the input range in[pos:pos+width], zero-padded past the end,
// so an Outcome records (pos, width) per slot instead of copying bits, and
// comparing two dictionaries becomes a slot-wise range comparison. Exec
// and Same allocate nothing once an Outcome has grown to its working size.
//
// The reference interpreters stay the definition and the independent
// oracle; the machine ≡ reference property tests pin the two together.

// Slots is a field-slot namespace: it numbers field names so that compiled
// interpreters record extractions in flat per-slot arrays. Machines
// compiled against the same Slots produce comparable Outcomes. Compiling a
// machine may add names, so a Slots, its machines and their outcomes
// belong to one goroutine.
type Slots struct {
	idx   map[string]int
	names []string
}

// NewSlots returns a namespace holding spec's declared fields in
// declaration order.
func NewSlots(spec *Spec) *Slots {
	ns := &Slots{idx: make(map[string]int, len(spec.Fields))}
	for _, f := range spec.Fields {
		ns.Slot(f.Name)
	}
	return ns
}

// Slot returns the slot of the named field, assigning the next free slot
// to a name seen for the first time.
func (ns *Slots) Slot(name string) int {
	if i, ok := ns.idx[name]; ok {
		return i
	}
	ns.idx[name] = len(ns.names)
	ns.names = append(ns.names, name)
	return len(ns.names) - 1
}

// Len returns the number of slots assigned so far.
func (ns *Slots) Len() int { return len(ns.names) }

// SlotKey is a KeyPart compiled against a Slots namespace.
type SlotKey struct {
	Lookahead bool
	Slot      int // field variant: the field's slot
	Off       int // Lo of a field slice, Skip of a lookahead window
	Width     int // key bits contributed
}

// Key compiles a transition-key composition.
func (ns *Slots) Key(parts []KeyPart) []SlotKey {
	out := make([]SlotKey, len(parts))
	for i, p := range parts {
		if p.Lookahead {
			out[i] = SlotKey{Lookahead: true, Off: p.Skip, Width: p.Width}
		} else {
			out[i] = SlotKey{Slot: ns.Slot(p.Field), Off: p.Lo, Width: p.BitWidth()}
		}
	}
	return out
}

// SlotExtract is an Extract compiled against a Slots namespace, with field
// widths resolved from the declaring spec.
type SlotExtract struct {
	Slot  int
	Width int // declared width; the maximum for a varbit field

	// Varbit length: LenSlot is -1 for a fixed-width field. Otherwise the
	// width is value(LenSlot)*LenScale + LenBias, clamped to [0, Width],
	// where value reads the length field's LenWidth declared bits.
	LenSlot           int
	LenWidth          int
	LenScale, LenBias int
}

// Extract compiles one extraction of spec.
func (ns *Slots) Extract(spec *Spec, e Extract) SlotExtract {
	f, _ := spec.Field(e.Field)
	x := SlotExtract{Slot: ns.Slot(e.Field), Width: f.Width, LenSlot: -1}
	if e.LenField != "" {
		lf, _ := spec.Field(e.LenField)
		x.LenSlot = ns.Slot(e.LenField)
		x.LenWidth = lf.Width
		x.LenScale, x.LenBias = e.LenScale, e.LenBias
	}
	return x
}

// Len returns the extracted width given the length field's value (ignored
// for fixed-width fields), clamped exactly as Spec.Run clamps it.
func (x *SlotExtract) Len(lenVal uint64) int {
	if x.LenSlot < 0 {
		return x.Width
	}
	n := int(lenVal)*x.LenScale + x.LenBias
	if n < 0 {
		n = 0
	}
	if n > x.Width {
		n = x.Width
	}
	return n
}

// FieldUint reads n bits, MSB first, starting at bit lo of a field that
// was extracted from input position pos with the given width. Bits past
// the field's width or past the end of the input read as zero — exactly
// Dict[f].Uint(lo, n) on the dictionary copy Spec.Run would have made.
func FieldUint(in bitstream.Bits, pos, width, lo, n int) uint64 {
	from := pos + lo
	a := max(from, pos, 0)
	b := min(from+n, pos+width, len(in))
	if a >= b {
		return 0
	}
	var v uint64
	for p := a; p < b; p++ {
		v <<= 1
		if in[p] != 0 {
			v |= 1
		}
	}
	return v << uint(from+n-b)
}

// Outcome is the reusable result of one machine run: the verdict and, per
// slot, whether the field was extracted and from which input range. It
// describes the run on one input; Same and Dict must be given that input.
type Outcome struct {
	Accepted bool // reached the accept state
	Rejected bool // rejected, fell off the TCAM, or ran out of iterations

	// KeepPath makes runs record the visited states in Path, with the same
	// numbering as Result.Path.
	KeepPath bool
	Path     []int

	ns    *Slots
	gen   uint32 // run generation; a slot is extracted iff its gen matches
	slots []slotVal
}

type slotVal struct {
	gen        uint32
	pos, width int
}

// Begin resets o for a run of a machine compiled against ns. Resetting is
// O(1): bumping the generation forgets every extraction.
func (o *Outcome) Begin(ns *Slots) {
	o.Accepted, o.Rejected = false, false
	o.Path = o.Path[:0]
	o.ns = ns
	if n := ns.Len(); len(o.slots) < n {
		o.slots = append(o.slots, make([]slotVal, n-len(o.slots))...)
	}
	o.gen++
	if o.gen == 0 { // wrapped: old generations would read as current
		clear(o.slots)
		o.gen = 1
	}
}

// Visit records state in Path when KeepPath is set.
func (o *Outcome) Visit(state int) {
	if o.KeepPath {
		o.Path = append(o.Path, state)
	}
}

// Extract performs one extraction at cursor pos and returns the advanced
// cursor.
func (o *Outcome) Extract(x *SlotExtract, in bitstream.Bits, pos int) int {
	w := x.Width
	if x.LenSlot >= 0 {
		w = x.Len(o.fieldUint(in, x.LenSlot, 0, x.LenWidth))
	}
	o.slots[x.Slot] = slotVal{gen: o.gen, pos: pos, width: w}
	return pos + w
}

// Key evaluates a compiled transition key with the cursor at pos. Slices
// of never-extracted fields read as zero, matching hardware container
// initialisation.
func (o *Outcome) Key(parts []SlotKey, in bitstream.Bits, pos int) uint64 {
	var key uint64
	for i := range parts {
		p := &parts[i]
		var v uint64
		if p.Lookahead { // a window over the rest of the input
			v = FieldUint(in, pos+p.Off, len(in), 0, p.Width)
		} else {
			v = o.fieldUint(in, p.Slot, p.Off, p.Width)
		}
		key = key<<uint(p.Width) | v
	}
	return key
}

func (o *Outcome) fieldUint(in bitstream.Bits, slot, lo, n int) uint64 {
	s, ok := o.at(slot)
	if !ok {
		return 0
	}
	return FieldUint(in, s.pos, s.width, lo, n)
}

func (o *Outcome) at(slot int) (slotVal, bool) {
	if slot < len(o.slots) && o.slots[slot].gen == o.gen {
		return o.slots[slot], true
	}
	return slotVal{}, false
}

// Same reports whether o and p — runs of machines sharing a Slots
// namespace on the same input in — are observationally equivalent under
// the §4 correctness definition: Result.Same on the runs' dictionaries.
func (o *Outcome) Same(p *Outcome, in bitstream.Bits) bool {
	if o.ns != p.ns {
		panic("pir: comparing outcomes from different slot namespaces")
	}
	if o.Accepted != p.Accepted || o.Rejected != p.Rejected {
		return false
	}
	for i, n := 0, max(len(o.slots), len(p.slots)); i < n; i++ {
		a, aok := o.at(i)
		b, bok := p.at(i)
		if aok != bok {
			return false
		}
		if !aok || a.pos == b.pos && a.width == b.width {
			continue
		}
		if a.width != b.width || !sameRange(in, a.pos, b.pos, a.width) {
			return false
		}
	}
	return true
}

// sameRange reports whether in[x:x+n] and in[y:y+n], zero-padded past the
// end of in, hold the same bits.
func sameRange(in bitstream.Bits, x, y, n int) bool {
	for j := 0; j < n; j++ {
		if in.Bit(x+j) != in.Bit(y+j) {
			return false
		}
	}
	return true
}

// Dict materializes the run's dictionary on input in, as Result.Dict. It
// allocates; tests compare it with the reference interpreters'.
func (o *Outcome) Dict(in bitstream.Bits) bitstream.Dict {
	d := bitstream.Dict{}
	for i := range o.slots {
		if s, ok := o.at(i); ok {
			d[o.ns.names[i]] = in.Slice(s.pos, s.width)
		}
	}
	return d
}

// Machine is a Spec compiled for repeated execution.
type Machine struct {
	ns     *Slots
	states []machineState
}

type machineState struct {
	extracts []SlotExtract
	key      []SlotKey
	rules    []machineRule
	def      int
}

// machineRule is a Rule with its value pre-masked and its target resolved.
type machineRule struct {
	value, mask uint64
	next        int
}

// Resolved targets: a state index, or one of these.
const (
	nextAccept = -1
	nextReject = -2
)

func resolve(t Target) int {
	switch t.Kind {
	case Accept:
		return nextAccept
	case Reject:
		return nextReject
	}
	return t.State
}

// NewMachine compiles spec against the namespace ns.
func NewMachine(spec *Spec, ns *Slots) *Machine {
	m := &Machine{ns: ns, states: make([]machineState, len(spec.States))}
	for i := range spec.States {
		st := &spec.States[i]
		ms := &m.states[i]
		for _, e := range st.Extracts {
			ms.extracts = append(ms.extracts, ns.Extract(spec, e))
		}
		ms.key = ns.Key(st.Key)
		for _, r := range st.Rules {
			ms.rules = append(ms.rules, machineRule{value: r.Value & r.Mask, mask: r.Mask, next: resolve(r.Next)})
		}
		ms.def = resolve(st.Default)
	}
	return m
}

// Exec runs the machine on input for at most maxIter states (<= 0 selects
// DefaultMaxIterations) and writes the run into o. It agrees with Run:
// o.Same(p, input) == Run(input).Same(...) for any comparable p, and with
// o.KeepPath set, o.Path equals Result.Path.
func (m *Machine) Exec(input bitstream.Bits, maxIter int, o *Outcome) {
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	o.Begin(m.ns)
	cur, pos := 0, 0
	for iter := 0; iter < maxIter; iter++ {
		st := &m.states[cur]
		o.Visit(cur)
		for i := range st.extracts {
			pos = o.Extract(&st.extracts[i], input, pos)
		}
		next := st.def
		if len(st.key) > 0 {
			key := o.Key(st.key, input, pos)
			for i := range st.rules {
				if r := &st.rules[i]; key&r.mask == r.value {
					next = r.next
					break
				}
			}
		}
		switch next {
		case nextAccept:
			o.Accepted = true
			return
		case nextReject:
			o.Rejected = true
			return
		}
		cur = next
	}
	// Iteration budget exhausted: the device would abort the packet.
	o.Rejected = true
}
