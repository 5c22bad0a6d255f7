// Package determ exercises the determinism analyzer: wall-clock reads, the
// global math/rand stream, stray goroutines and order-sensitive map ranges.
package determ

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func wallClock() time.Duration {
	t0 := time.Now()      // want "time.Now reads the wall clock"
	return time.Since(t0) // want "time.Since reads the wall clock"
}

func globalRand() int {
	return rand.Intn(6) // want "rand.Intn draws from the global stream"
}

func seededRand() int {
	rng := rand.New(rand.NewSource(42)) // ok: seeded constructor
	return rng.Intn(6)                  // ok: method on the seeded stream
}

func strayGoroutine() int {
	ch := make(chan int)
	go func() { ch <- 1 }() // want "goroutine launched outside the blessed parallelMap"
	return <-ch
}

// parallelMap carries the blessed runner's name, but only internal/experiments'
// copy is blessed (see determ/internal/experiments).
func parallelMap(n int, f func(int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) { f(i); done <- struct{}{} }(i) // want "goroutine launched outside the blessed parallelMap"
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

func sumFloats(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want "order-dependent accumulation into outer state"
		total += v
	}
	return total
}

func sumInts(m map[string]int) int {
	total := 0
	for _, v := range m { // ok: integer accumulation is exact in any order
		total += v
	}
	return total
}

func collectValues(m map[string]int) []int {
	var out []int
	for _, v := range m { // want "append to outer slice"
		out = append(out, v)
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m { // ok: the sorted-keys idiom
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printAll(m map[string]int) {
	for k, v := range m { // want "output emitted per element"
		fmt.Println(k, v)
	}
}

func waivedRange(m map[string]int) []int {
	var out []int
	//papivet:ordered — the caller sorts the collected values before use
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
