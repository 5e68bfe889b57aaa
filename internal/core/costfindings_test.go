package core

import (
	"testing"

	"drgpum/internal/costmodel"
	"drgpum/internal/trace"
)

// TestDominantKernel checks the kernel an uncoalesced-access finding
// names: the one with the most excess transactions, a tie going to the
// smaller name whatever order the kernels first touched the object in.
func TestDominantKernel(t *testing.T) {
	excess := func(kernel string, n uint64) trace.KernelCost {
		return trace.KernelCost{Kernel: kernel, Cost: costmodel.ObjectCost{Transactions: 8 + n, IdealTransactions: 8}}
	}
	for _, c := range []struct {
		name string
		by   []trace.KernelCost
		want string
	}{
		{"none", nil, ""},
		{"one", []trace.KernelCost{excess("k", 0)}, "k"},
		{"most-excess", []trace.KernelCost{excess("a", 2), excess("c", 32), excess("b", 12)}, "c"},
		{"tie-later-smaller", []trace.KernelCost{excess("zeta", 32), excess("alpha", 1), excess("beta", 32)}, "beta"},
		{"tie-first-smaller", []trace.KernelCost{excess("beta", 32), excess("gamma", 32), excess("alpha", 31)}, "beta"},
		{"no-excess", []trace.KernelCost{excess("k2", 0), excess("k1", 0), excess("k3", 0)}, "k1"},
	} {
		if got := dominantKernel(c.by); got != c.want {
			t.Errorf("%s: dominantKernel = %q, want %q", c.name, got, c.want)
		}
	}
}
