// Package experiments exercises the goroutine blessing: its import path ends
// in /internal/experiments, so its parallelMap is the one blessed runner.
package experiments

func parallelMap(n int, f func(int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) { f(i); done <- struct{}{} }(i) // ok: the blessed runner
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

func strayGoroutine() int {
	ch := make(chan int)
	go func() { ch <- 1 }() // want "goroutine launched outside the blessed parallelMap"
	return <-ch
}
