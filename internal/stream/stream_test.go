package stream

import (
	"testing"

	"phihpl/internal/matrix"
)

func TestKernelSemantics(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	dst := make([]float64, 3)

	Copy(dst, a)
	if dst[2] != 3 {
		t.Error("copy")
	}
	Scale(dst, a, 2)
	if dst[1] != 4 {
		t.Error("scale")
	}
	Add(dst, a, b)
	if dst[0] != 11 {
		t.Error("add")
	}
	Triad(dst, a, b, 0.5)
	if dst[2] != 3+15 {
		t.Error("triad")
	}
}

func TestTriadParallelMatchesSerial(t *testing.T) {
	n := 10007
	a := matrix.RandomVector(n, 1)
	b := matrix.RandomVector(n, 2)
	want := make([]float64, n)
	Triad(want, a, b, 1.5)
	for _, w := range []int{1, 2, 4, 8} {
		got := make([]float64, n)
		TriadParallel(got, a, b, 1.5, w)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: mismatch at %d", w, i)
			}
		}
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"copy":  func() { Copy(make([]float64, 2), make([]float64, 3)) },
		"scale": func() { Scale(make([]float64, 2), make([]float64, 3), 1) },
		"add":   func() { Add(make([]float64, 2), make([]float64, 2), make([]float64, 3)) },
		"triad": func() { Triad(make([]float64, 2), make([]float64, 3), make([]float64, 2), 1) },
		"par":   func() { TriadParallel(make([]float64, 2), make([]float64, 3), make([]float64, 2), 1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBytesMoved(t *testing.T) {
	if BytesMoved(CopyOp, 100) != 1600 || BytesMoved(TriadOp, 100) != 2400 {
		t.Error("byte accounting wrong")
	}
}

func TestOpString(t *testing.T) {
	if CopyOp.String() != "copy" || ScaleOp.String() != "scale" ||
		AddOp.String() != "add" || TriadOp.String() != "triad" {
		t.Error("op names")
	}
}
