package server

import (
	"errors"
	"strings"
	"testing"

	"phihpl"
)

// TestMixedDistValidation: the stale native-only guard is gone — mixed
// precision is accepted for dist2d and hybrid2d (and still for native),
// normalized into the Spec, and refused for ft with a diagnostic naming
// both the reason and the supported alternatives.
func TestMixedDistValidation(t *testing.T) {
	cfg := testConfig().withDefaults()
	for _, mode := range []string{"native", "dist2d", "hybrid2d"} {
		sp, err := JobSpec{N: 64, Mode: mode, Precision: "mixed"}.Validate(cfg)
		if err != nil {
			t.Fatalf("mode %s with mixed rejected: %v", mode, err)
		}
		if sp.Precision != phihpl.PrecisionMixed {
			t.Errorf("mode %s: normalized precision = %v, want mixed", mode, sp.Precision)
		}
		if !strings.Contains(sp.CacheKey(), "prec=mixed") {
			t.Errorf("mode %s: cache key %q must carry the precision", mode, sp.CacheKey())
		}
	}

	_, err := JobSpec{N: 64, Mode: "ft", Precision: "mixed"}.Validate(cfg)
	var bre *BadRequestError
	if !errors.As(err, &bre) || bre.Code != "unsupported" || bre.Field != "precision" {
		t.Fatalf("ft+mixed: err = %v, want *BadRequestError{Field: precision, Code: unsupported}", err)
	}
	for _, want := range []string{"ft", "ABFT", "dist2d", "fp64"} {
		if !strings.Contains(bre.Msg, want) {
			t.Errorf("ft+mixed diagnostic %q should mention %q", bre.Msg, want)
		}
	}
}

// TestMemEstimateFormula pins the admission gate's footprint arithmetic,
// FP32 shadow included: base = 8(n²+8n) bytes for the FP64 system,
// shadow = 4n² for the mixed FP32 mirror; native = base(+shadow),
// dist2d/hybrid2d = 3·base(+2·shadow: per-rank blocks and the root's
// gathered factors), ft = 4·base (mixed is rejected before estimating).
func TestMemEstimateFormula(t *testing.T) {
	const n = 100
	base := int64(8 * (n*n + 8*n))
	shadow := int64(4 * n * n)
	for _, tc := range []struct {
		name string
		sp   Spec
		want int64
	}{
		{"native fp64", Spec{Spec: phihpl.Spec{Mode: ModeNative, N: n}}, base},
		{"native mixed", Spec{Spec: phihpl.Spec{Mode: ModeNative, N: n, Precision: phihpl.PrecisionMixed}}, base + shadow},
		{"dist2d fp64", Spec{Spec: phihpl.Spec{Mode: ModeDist2D, N: n}}, 3 * base},
		{"dist2d mixed", Spec{Spec: phihpl.Spec{Mode: ModeDist2D, N: n, Precision: phihpl.PrecisionMixed}}, 3*base + 2*shadow},
		{"hybrid2d fp64", Spec{Spec: phihpl.Spec{Mode: ModeHybrid2D, N: n}}, 3 * base},
		{"hybrid2d mixed", Spec{Spec: phihpl.Spec{Mode: ModeHybrid2D, N: n, Precision: phihpl.PrecisionMixed}}, 3*base + 2*shadow},
		{"ft fp64", Spec{Spec: phihpl.Spec{Mode: ModeFT, N: n}}, 4 * base},
	} {
		if got := tc.sp.MemEstimate(); got != tc.want {
			t.Errorf("%s: MemEstimate = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestMixedAdmissionUsesShadow: a memory budget that admits the FP64
// footprint of a dist2d job but not its mixed twin must reject only the
// mixed submission — the gate sees the FP32 shadow.
func TestMixedAdmissionUsesShadow(t *testing.T) {
	const n = 64
	fp64Est := Spec{Spec: phihpl.Spec{Mode: ModeDist2D, N: n}}.MemEstimate()
	mixedEst := Spec{Spec: phihpl.Spec{Mode: ModeDist2D, N: n, Precision: phihpl.PrecisionMixed}}.MemEstimate()
	if mixedEst <= fp64Est {
		t.Fatalf("mixed estimate %d must exceed fp64 estimate %d", mixedEst, fp64Est)
	}
	cfg := testConfig().withDefaults()
	cfg.MemBudget = (fp64Est + mixedEst) / 2

	if _, err := (JobSpec{N: n, Mode: "dist2d", P: 2, Q: 2}).Validate(cfg); err != nil {
		t.Fatalf("fp64 job under the budget rejected: %v", err)
	}
	_, err := (JobSpec{N: n, Mode: "dist2d", P: 2, Q: 2, Precision: "mixed"}).Validate(cfg)
	var bre *BadRequestError
	if !errors.As(err, &bre) {
		t.Fatalf("mixed job over the budget: err = %v, want *BadRequestError", err)
	}
	if !strings.Contains(bre.Msg, "footprint") {
		t.Errorf("diagnostic %q should name the footprint", bre.Msg)
	}
}
