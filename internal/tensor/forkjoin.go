package tensor

import (
	"runtime"
	"sync"
)

// job is one chunk of a kernel call whose output rows are partitioned across
// goroutines: a plain value, so handing it to a helper allocates nothing.
// run names the kernel (a top-level function, not a closure) and reads the
// operands it needs; [lo, hi) is the chunk.
type job struct {
	run            func(job)
	transA, transB bool
	alpha, beta    float64
	a, b, c        *Matrix
	sparse         *CSR
	lo, hi         int
	done           *sync.WaitGroup
}

var (
	// helperJobs is unbuffered on purpose: a send blocks until a helper takes
	// the chunk, so a chunk is never run late on the caller because the
	// helper had not parked yet.
	helperJobs = make(chan job)
	helpers    = runtime.NumCPU() - 1
	joins      = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// The helpers live as long as the process. They only ever run kernel chunks,
// which never fork themselves, so a blocked hand-off always ends.
func init() {
	for range helpers {
		go helper()
	}
}

func helper() {
	for j := range helperJobs {
		j.run(j)
		j.done.Done()
	}
}

// forkJoin runs j over [0, rows) on at most workers goroutines (<= 0 means
// GOMAXPROCS): chunk 0 on the caller, the rest on the persistent helpers.
// Chunks are multiples of align rows. Small calls (work below 4096: nonzero
// products for the sparse kernels, output elements of gemmTerms terms for the
// dense ones) and workers <= 1 run serially.
func forkJoin(rows, work, workers, align int, j job) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, (rows+align-1)/align, helpers+1)
	if workers <= 1 || work < 4096 {
		j.lo, j.hi = 0, rows
		j.run(j)
		return
	}
	chunk := ((rows+workers-1)/workers + align - 1) / align * align
	j.done = joins.Get().(*sync.WaitGroup)
	for lo := chunk; lo < rows; lo += chunk {
		j.lo, j.hi = lo, min(lo+chunk, rows)
		j.done.Add(1)
		helperJobs <- j
	}
	j.lo, j.hi = 0, chunk
	j.run(j)
	j.done.Wait()
	joins.Put(j.done)
}
