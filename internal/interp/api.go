package interp

import (
	"fmt"

	"facc/internal/minic"
)

// This file is the host-facing API used by FACC's generate-and-test engine
// and the benchmark harness to move data between Go and interpreted code.

// NewArray allocates an array of count elements of type elem and returns a
// pointer to its first element.
func (m *Machine) NewArray(name string, elem *minic.Type, count int) (Value, error) {
	if FlatSize(elem) == 0 {
		return Value{}, fmt.Errorf("interp: cannot allocate array of %s", elem)
	}
	a := m.NewAlloc(name, elem, count)
	return PointerValue(Pointer{Alloc: a, Elem: elem}, minic.PointerTo(elem)), nil
}

// SetFloatArray writes vals into the float/double array at p.
func (m *Machine) SetFloatArray(p Value, vals []float64) error {
	if p.Kind() != VPointer {
		return fmt.Errorf("interp: SetFloatArray target is not a pointer")
	}
	ptr := p.Addr()
	for i, v := range vals {
		cp := ptr
		cp.Off += i
		if err := m.StoreScalar(cp, FloatValue(v, minic.Double), minic.Pos{}); err != nil {
			return err
		}
	}
	return nil
}

// GetFloatArray reads n float values starting at p.
func (m *Machine) GetFloatArray(p Value, n int) ([]float64, error) {
	if p.Kind() != VPointer {
		return nil, fmt.Errorf("interp: GetFloatArray source is not a pointer")
	}
	out := make([]float64, n)
	ptr := p.Addr()
	for i := 0; i < n; i++ {
		cp := ptr
		cp.Off += i
		v, err := m.LoadScalar(cp, minic.Pos{})
		if err != nil {
			return nil, err
		}
		out[i] = v.Float()
	}
	return out, nil
}

// SetComplexArray writes complex values into an array of complex cells.
func (m *Machine) SetComplexArray(p Value, vals []complex128) error {
	if p.Kind() != VPointer {
		return fmt.Errorf("interp: SetComplexArray target is not a pointer")
	}
	ptr := p.Addr()
	for i, v := range vals {
		cp := ptr
		cp.Off += i
		if err := m.StoreScalar(cp, ComplexValue(v, minic.ComplexDouble), minic.Pos{}); err != nil {
			return err
		}
	}
	return nil
}

// GetComplexArray reads n complex values starting at p.
func (m *Machine) GetComplexArray(p Value, n int) ([]complex128, error) {
	if p.Kind() != VPointer {
		return nil, fmt.Errorf("interp: GetComplexArray source is not a pointer")
	}
	out := make([]complex128, n)
	ptr := p.Addr()
	for i := 0; i < n; i++ {
		cp := ptr
		cp.Off += i
		v, err := m.LoadScalar(cp, minic.Pos{})
		if err != nil {
			return nil, err
		}
		out[i] = v.Complex()
	}
	return out, nil
}

// SetStructComplexArray writes complex values into an array of two-float
// structs, using the given flattened field offsets for the real and
// imaginary parts.
func (m *Machine) SetStructComplexArray(p Value, vals []complex128, reOff, imOff int) error {
	if p.Kind() != VPointer {
		return fmt.Errorf("interp: target is not a pointer")
	}
	per := FlatSize(p.Addr().Elem)
	base := p.Addr()
	base.Elem = minic.Double
	for i, v := range vals {
		re := base
		re.Off = int(p.I) + i*per + reOff
		if err := m.StoreScalar(re, FloatValue(real(v), minic.Double), minic.Pos{}); err != nil {
			return err
		}
		im := base
		im.Off = int(p.I) + i*per + imOff
		if err := m.StoreScalar(im, FloatValue(imag(v), minic.Double), minic.Pos{}); err != nil {
			return err
		}
	}
	return nil
}

// GetStructComplexArray reads n complex values from an array of structs.
func (m *Machine) GetStructComplexArray(p Value, n, reOff, imOff int) ([]complex128, error) {
	if p.Kind() != VPointer {
		return nil, fmt.Errorf("interp: source is not a pointer")
	}
	per := FlatSize(p.Addr().Elem)
	out := make([]complex128, n)
	base := p.Addr()
	base.Elem = minic.Double
	for i := 0; i < n; i++ {
		re := base
		re.Off = int(p.I) + i*per + reOff
		rv, err := m.LoadScalar(re, minic.Pos{})
		if err != nil {
			return nil, err
		}
		im := base
		im.Off = int(p.I) + i*per + imOff
		iv, err := m.LoadScalar(im, minic.Pos{})
		if err != nil {
			return nil, err
		}
		out[i] = complex(rv.Float(), iv.Float())
	}
	return out, nil
}

// ComplexSlicesAlmostEqual compares two complex slices with the given
// relative/absolute tolerance.
func ComplexSlicesAlmostEqual(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEqual(real(a[i]), real(b[i]), tol) || !almostEqual(imag(a[i]), imag(b[i]), tol) {
			return false
		}
	}
	return true
}
