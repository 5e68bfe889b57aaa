// Package deadstore is the fixture for the deadstore analyzer: adjacent
// copy/set write pairs and write-only kernel outputs must be flagged;
// read-between, conditional, and post-escape pairs, and kernel stores to
// a buffer whose address leaks into a package variable, must not.
package deadstore

import "drgpum/gpusim"

// Variant mirrors the workload variant type so the fixture can exercise
// variant-conditional pruning.
type Variant uint8

const (
	// VariantNaive selects the unoptimized branches.
	VariantNaive Variant = iota
	// VariantOptimized selects the fixed branches.
	VariantOptimized
)

// adjacentOverwrite memsets a buffer and immediately overwrites it with a
// copy — the memset's value is never read, flagged.
func adjacentOverwrite(dev *gpusim.Device, host []byte) {
	grid, _ := dev.Malloc(64)
	dev.Memset(grid, 0, 64, nil) // want `write to buffer "grid" is dead: overwritten at line \d+`
	dev.MemcpyHtoD(grid, host, nil)
	_ = dev.Free(grid)
}

// readBetween copies the buffer out between the two writes — silent.
func readBetween(dev *gpusim.Device, host, out []byte) {
	buf, _ := dev.Malloc(64)
	dev.Memset(buf, 0, 64, nil)
	dev.MemcpyDtoH(out, buf, nil)
	dev.MemcpyHtoD(buf, host, nil)
	_ = dev.Free(buf)
}

// writeOnlyKernel stores into a buffer no kernel load or DtoH copy ever
// observes — write-only output, flagged at the store site.
func writeOnlyKernel(dev *gpusim.Device) {
	out, _ := dev.Malloc(256)
	_ = dev.LaunchFunc(nil, "fill", gpusim.Dim1(1), gpusim.Dim1(64), func(ctx *gpusim.ExecContext) {
		for i := 0; i < 64; i++ {
			ctx.StoreF32(out+gpusim.DevicePtr(i*4), 1) // want `kernel "fill" stores to buffer "out" but its contents are never read`
		}
	})
	_ = dev.Free(out)
}

// kernelStoreRead stores and then copies the result back — silent.
func kernelStoreRead(dev *gpusim.Device, host []byte) {
	buf, _ := dev.Malloc(256)
	_ = dev.LaunchFunc(nil, "fill2", gpusim.Dim1(1), gpusim.Dim1(64), func(ctx *gpusim.ExecContext) {
		for i := 0; i < 64; i++ {
			ctx.StoreF32(buf+gpusim.DevicePtr(i*4), 2)
		}
	})
	dev.MemcpyDtoH(host, buf, nil)
	_ = dev.Free(buf)
}

// conditionalWrite guards the first write with an undecidable condition:
// the pair may never both execute — silent.
func conditionalWrite(dev *gpusim.Device, host []byte, flag bool) {
	buf, _ := dev.Malloc(64)
	if flag {
		dev.Memset(buf, 0, 64, nil)
	}
	dev.MemcpyHtoD(buf, host, nil)
	_ = dev.Free(buf)
}

// pingPong escapes both buffers in an in-loop tuple swap. The pair before
// the escape happened while the model was exact — flagged; the identical
// pair after the swap may interleave with alias accesses — silent.
func pingPong(dev *gpusim.Device, host []byte) {
	grid, _ := dev.Malloc(64)
	next, _ := dev.Malloc(64)
	dev.Memset(grid, 0, 64, nil) // want `write to buffer "grid" is dead: overwritten at line \d+`
	dev.MemcpyHtoD(grid, host, nil)
	for i := 0; i < 4; i++ {
		grid, next = next, grid
	}
	dev.Memset(grid, 0, 64, nil)
	dev.MemcpyHtoD(grid, host, nil)
	_ = dev.Free(grid)
	_ = dev.Free(next)
}

// variantStaging clears and stages only in the naive variant: the finding
// must carry the variant prefix because the optimized walk never sees it.
func variantStaging(dev *gpusim.Device, host []byte, v Variant) {
	tmp, _ := dev.Malloc(64)
	if v == VariantNaive {
		dev.Memset(tmp, 0, 64, nil) // want `\[naive\] write to buffer "tmp" is dead`
		dev.MemcpyHtoD(tmp, host, nil)
	}
	_ = dev.Free(tmp)
}

// allowedStaging is the same dead pair under a suppression pragma — silent.
func allowedStaging(dev *gpusim.Device, host []byte) {
	buf, _ := dev.Malloc(64)
	dev.Memset(buf, 0, 64, nil) //staticadv:allow deadstore
	dev.MemcpyHtoD(buf, host, nil)
	_ = dev.Free(buf)
}

// sink is a package variable a kernel can leak a device address into.
var sink gpusim.DevicePtr

// stash hands its pointer back through a call the model does not follow.
func stash(p gpusim.DevicePtr) gpusim.DevicePtr { return p }

// leakingHelper stores through p, then leaks p into sink.
func leakingHelper(ctx *gpusim.ExecContext, p gpusim.DevicePtr) {
	ctx.StoreF32(p, 1)
	sink = stash(p)
}

// helperEscape's kernel leaks the buffer's address through an inlined
// helper: whatever reads sink may read the stores — silent.
func helperEscape(dev *gpusim.Device) {
	buf, _ := dev.Malloc(4096)
	_ = dev.LaunchFunc(nil, "leak", gpusim.Dim1(1), gpusim.Dim1(64), func(ctx *gpusim.ExecContext) {
		leakingHelper(ctx, buf)
	})
	_ = dev.Free(buf)
}

// literalEscape's kernel literal leaks an interior address of the buffer
// into sink itself — silent.
func literalEscape(dev *gpusim.Device) {
	buf, _ := dev.Malloc(4096)
	_ = dev.LaunchFunc(nil, "leak2", gpusim.Dim1(1), gpusim.Dim1(64), func(ctx *gpusim.ExecContext) {
		ctx.StoreF32(buf, 1)
		sink = buf + 4
	})
	_ = dev.Free(buf)
}
