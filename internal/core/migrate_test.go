package core

import (
	"math"
	"strings"
	"testing"

	"facc/internal/accel"
	"facc/internal/behave"
)

func TestMigrateFFTWToFFTA(t *testing.T) {
	mig, err := MigrateLibrary(accel.NewFFTWLib(), accel.NewFFTA(), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// FFTW is un-normalized, the FFTA normalizes → denormalize patch.
	if mig.Post.Scale != behave.ScaleByN {
		t.Errorf("post = %s, want denormalize", mig.Post)
	}
	// FFTW exposes directions the FFTA lacks → forward-only pin.
	if !mig.ForwardOnly {
		t.Error("migration should be forward-only")
	}
	// The accelerated domain is the intersection.
	if mig.MinN != 64 || mig.MaxN != 65536 || !mig.PowerOfTwoOnly {
		t.Errorf("domain = [%d,%d] pow2=%v", mig.MinN, mig.MaxN, mig.PowerOfTwoOnly)
	}
	src := mig.EmitC()
	for _, w := range []string{
		"void fftw_call_accel(",
		"is_power_of_two(length)",
		"direction == -1",
		"accel_cfft(acc_input, acc_output, length);",
		"acc_output[__k].re *= (float)length;",
		"fftw_call(acc_input, acc_output, length, direction, flags); /* fallback",
	} {
		if !strings.Contains(src, w) {
			t.Errorf("emitted migration missing %q:\n%s", w, src)
		}
	}
}

func TestMigrateFFTWToPowerQuad(t *testing.T) {
	mig, err := MigrateLibrary(accel.NewFFTWLib(), accel.NewPowerQuad(), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Both un-normalized → identity patch.
	if !mig.Post.IsIdentity() {
		t.Errorf("post = %s, want identity", mig.Post)
	}
	if mig.MinN != 16 || mig.MaxN != 4096 {
		t.Errorf("domain = [%d,%d]", mig.MinN, mig.MaxN)
	}
}

func TestMigratePowerQuadToFFTA(t *testing.T) {
	// Hardware-to-hardware: PowerQuad API (un-normalized) on the FFTA.
	mig, err := MigrateLibrary(accel.NewPowerQuad(), accel.NewFFTA(), 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Post.Scale != behave.ScaleByN {
		t.Errorf("post = %s", mig.Post)
	}
	if mig.ForwardOnly {
		t.Error("neither API has a direction parameter")
	}
	if mig.MinN != 64 || mig.MaxN != 4096 {
		t.Errorf("domain = [%d,%d]", mig.MinN, mig.MaxN)
	}
}

// A NaN distance must fail the comparison, in either argument order.
func TestMigCloseRejectsNaN(t *testing.T) {
	nan := complex(math.NaN(), math.NaN())
	finite := []complex128{1, 2i, -3}
	nans := []complex128{nan, nan, nan}
	if migClose(nans, finite) || migClose(finite, nans) {
		t.Error("migClose accepts an all-NaN vector against a finite one")
	}
	for _, v := range []complex128{complex(math.NaN(), math.Inf(1)), complex(math.Inf(1), 0), complex(0, math.Inf(-1))} {
		odd := []complex128{1, v, -3}
		if migClose(odd, finite) || migClose(finite, odd) || migClose(odd, odd) {
			t.Errorf("migClose accepts %v", v)
		}
	}
	if !migClose(finite, finite) {
		t.Error("identical finite vectors do not match")
	}
}
