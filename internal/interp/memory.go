package interp

import (
	"fmt"

	"facc/internal/minic"
)

// Alloc is one allocation (a global, local, array, or malloc block).
// Memory is modeled as typed scalar cells, so every out-of-bounds or
// use-after-free access is caught exactly — the role AddressSanitizer
// plays in the paper's generate-and-test loop.
type Alloc struct {
	ID    int
	Name  string // diagnostic label ("buf", "malloc#3", ...)
	Cells []Value
	Freed bool

	// Untyped malloc blocks carry a byte size until the first typed use.
	RawBytes int
	ElemType *minic.Type // element type the block was materialized with
}

// Pointer is an address: the allocation, a cell offset, and the element
// type the pointer views memory as. A nil Alloc is the null pointer.
type Pointer struct {
	Alloc *Alloc
	Off   int // cell index
	Elem  *minic.Type
}

// IsNull reports whether p is the null pointer.
func (p Pointer) IsNull() bool { return p.Alloc == nil }

// AsInt returns a stable integer rendering of the pointer (for the rare
// pointer→int casts; only nullness is meaningful).
func (p Pointer) AsInt() int64 {
	if p.Alloc == nil {
		return 0
	}
	return int64(p.Alloc.ID)<<20 + int64(p.Off) + 1
}

func (p Pointer) String() string {
	if p.IsNull() {
		return "NULL"
	}
	return fmt.Sprintf("&%s[%d]", p.Alloc.Name, p.Off)
}

// FlatSize returns the number of scalar cells an object of type t occupies.
// VLAs and incomplete arrays return 0 (cannot be sized statically).
func FlatSize(t *minic.Type) int {
	switch t.Kind {
	case minic.TArray:
		if t.ArrayLen < 0 {
			return 0
		}
		return t.ArrayLen * FlatSize(t.Elem)
	case minic.TStruct:
		n := 0
		for _, f := range t.Fields {
			n += FlatSize(f.Type)
		}
		return n
	case minic.TVoid:
		return 0
	default:
		return 1
	}
}

// FlatLeaves appends the scalar leaf types of t (in layout order) to dst.
func FlatLeaves(t *minic.Type, dst []*minic.Type) []*minic.Type {
	switch t.Kind {
	case minic.TArray:
		for i := 0; i < t.ArrayLen; i++ {
			dst = FlatLeaves(t.Elem, dst)
		}
		return dst
	case minic.TStruct:
		for _, f := range t.Fields {
			dst = FlatLeaves(f.Type, dst)
		}
		return dst
	default:
		return append(dst, t)
	}
}

// fieldOffset returns the flat cell offset of field index i within struct t.
func fieldOffset(t *minic.Type, i int) int {
	off := 0
	for j := 0; j < i; j++ {
		off += FlatSize(t.Fields[j].Type)
	}
	return off
}

// zeroCells returns count elements' worth of zeroed cells laid out as
// leaves (one element's leaf types).
func zeroCells(leaves []*minic.Type, count int) []Value {
	per := len(leaves)
	cells := make([]Value, count*per)
	for i := range cells {
		cells[i] = zeroValue(leaves[i%per])
	}
	return cells
}

// NewAlloc creates a typed allocation of count elements of type elem.
func (m *Machine) NewAlloc(name string, elem *minic.Type, count int) *Alloc {
	return m.newAlloc(name, elem, FlatLeaves(elem, nil), count)
}

// newAlloc is NewAlloc with elem's leaves precomputed.
func (m *Machine) newAlloc(name string, elem *minic.Type, leaves []*minic.Type, count int) *Alloc {
	m.nextAllocID++
	return &Alloc{ID: m.nextAllocID, Name: name, Cells: zeroCells(leaves, count), ElemType: elem}
}

// materialize gives an untyped malloc block its element type on first
// typed use. Re-materializing with an incompatible type is a fault.
func (m *Machine) materialize(a *Alloc, elem *minic.Type, pos *minic.Pos) error {
	if a.Cells != nil || a.ElemType != nil {
		if a.ElemType != nil && !a.ElemType.Same(elem) {
			// Permit views that keep the same scalar leaf type, e.g.
			// float* into a float[2]-shaped block.
			aLeaves := FlatLeaves(a.ElemType, nil)
			eLeaves := FlatLeaves(elem, nil)
			if len(aLeaves) > 0 && len(eLeaves) > 0 && aLeaves[0].Same(eLeaves[0]) {
				return nil
			}
			return m.fault(pos, FaultBadCast,
				"pointer reinterprets %s block as %s", a.ElemType, elem)
		}
		return nil
	}
	size := elem.Sizeof()
	if size <= 0 {
		return m.fault(pos, FaultBadCast, "cannot materialize block as %s", elem)
	}
	a.Cells = zeroCells(FlatLeaves(elem, nil), a.RawBytes/size)
	a.ElemType = elem
	return nil
}

// checkAccess validates that cells [off, off+n) of a are readable and
// writable through a pointer viewing them as elem.
func (m *Machine) checkAccess(a *Alloc, off, n int, elem *minic.Type, pos *minic.Pos) error {
	if a == nil {
		return m.fault(pos, FaultNullDeref, "null pointer dereference")
	}
	if a.Freed {
		return m.fault(pos, FaultUseAfterFree, "use after free of %s", a.Name)
	}
	if a.Cells == nil {
		if err := m.materialize(a, elem, pos); err != nil {
			return err
		}
	}
	if off < 0 || off+n > len(a.Cells) {
		return m.fault(pos, FaultOutOfBounds,
			"out-of-bounds access to %s: cells [%d,%d) of %d",
			a.Name, off, off+n, len(a.Cells))
	}
	return nil
}

// access is checkAccess for compiled code: it unwinds on a fault.
func (m *Machine) access(a *Alloc, off, n int, elem *minic.Type, pos *minic.Pos) {
	if a == nil || a.Freed || off < 0 || off+n > len(a.Cells) {
		m.must(m.checkAccess(a, off, n, elem, pos))
	}
}

// load reads the cell at a[off].
func (m *Machine) load(a *Alloc, off int, elem *minic.Type, pos *minic.Pos) Value {
	if a == nil || a.Freed || uint(off) >= uint(len(a.Cells)) {
		m.must(m.checkAccess(a, off, 1, elem, pos))
	}
	m.Counters.Loads++
	return a.Cells[off]
}

// store converts v to the type of the cell at a[off] and writes it.
func (m *Machine) store(a *Alloc, off int, v Value, elem *minic.Type, pos *minic.Pos) Value {
	if a == nil || a.Freed || uint(off) >= uint(len(a.Cells)) {
		m.must(m.checkAccess(a, off, 1, elem, pos))
	}
	cell := &a.Cells[off]
	cv, err := Convert(v, cell.Type())
	if err != nil {
		m.must(m.fault(pos, FaultBadCast, "store: %v", err))
	}
	m.Counters.Stores++
	*cell = cv
	return cv
}

// copyCells copies n cells from src[soff:] to dst[doff:] as one struct
// store: the destination is checked and n stores are counted (the source
// was checked and counted when it was evaluated).
func (m *Machine) copyCells(dst *Alloc, doff int, src Value, n int, elem *minic.Type, pos *minic.Pos) {
	if src.Kind() != VStruct || (src.T != elem && FlatSize(src.T) != n) {
		m.must(m.fault(pos, FaultBadCast, "struct store size mismatch"))
	}
	m.access(dst, doff, n, elem, pos)
	m.Counters.Stores += int64(n)
	copy(dst.Cells[doff:doff+n], src.A.Cells[src.I:int(src.I)+n])
}

// LoadScalar reads the single cell at p.
func (m *Machine) LoadScalar(p Pointer, pos minic.Pos) (Value, error) {
	if err := m.checkAccess(p.Alloc, p.Off, 1, p.Elem, &pos); err != nil {
		return Value{}, err
	}
	m.Counters.Loads++
	return p.Alloc.Cells[p.Off], nil
}

// StoreScalar writes v (converted to the cell's type) at p.
func (m *Machine) StoreScalar(p Pointer, v Value, pos minic.Pos) error {
	if err := m.checkAccess(p.Alloc, p.Off, 1, p.Elem, &pos); err != nil {
		return err
	}
	cell := &p.Alloc.Cells[p.Off]
	cv, err := Convert(v, cell.Type())
	if err != nil {
		return m.fault(&pos, FaultBadCast, "store: %v", err)
	}
	m.Counters.Stores++
	*cell = cv
	return nil
}

// elemStep is the cell stride of a pointer viewing elem (1 for void).
func elemStep(elem *minic.Type) int {
	if step := FlatSize(elem); step != 0 {
		return step
	}
	return 1
}
