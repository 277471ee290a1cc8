// Package hotpath is the hotpathalloc fixture. The analyzer stays under
// the overlap rule: the 0-allocs benchmark gates in CI (allocs gate,
// bench-smoke) see an allocation only on the branches their inputs drive
// and only once a benchmark runs, while the analyzer flags one at vet
// time on every branch of an annotated function, including the cold
// ones no benchmark reaches (Grow below).
package hotpath

import "fmt"

// Lookup is the annotated fast path: every allocating construct below
// must be flagged.
//
//pclass:hotpath
func Lookup(keys []int) int {
	buf := make([]int, len(keys)) // want `hot path calls make`
	extra := new(int)             // want `hot path calls new`
	buf = append(buf, 1)          // want `hot path calls append`
	fmt.Println(len(buf))         // want `hot path calls fmt\.Println`
	s := "a" + fmt.Sprint(1)      // want `hot path concatenates strings` `hot path calls fmt\.Sprint`
	b := []byte(s)                // want `hot path converts a string to a slice`
	s = string(b)                 // want `hot path converts a slice to string`
	lit := []int{1, 2}            // want `hot path builds a slice literal`
	m := map[int]int{}            // want `hot path builds a map literal`
	p := &pair{}                  // want `hot path takes the address of a composite literal`
	f := func() int { return 0 }  // want `hot path builds a closure`
	go work()                     // want `hot path starts a goroutine`
	return *extra + lit[0] + m[0] + p.a + f() + len(s)
}

// Precompute is not annotated: the same constructs are fine here.
func Precompute(n int) []int {
	out := make([]int, n)
	for i := range out {
		out = append(out[:i], i)
	}
	return out
}

// Grow allocates only when the caller's scratch is short: a benchmark
// with warm scratch never takes the branch and reads 0 allocs/op, and the
// analyzer flags it anyway.
//
//pclass:hotpath
func Grow(keys, scratch []int) []int {
	if cap(scratch) < len(keys) {
		scratch = make([]int, len(keys)) // want `hot path calls make`
	}
	return scratch[:len(keys)]
}

// Checked shows the two sanctioned escapes: a panic's message may
// allocate (the invariant-violation path is already dying), and
// //pclass:allow-alloc suppresses a deliberate cold-start allocation.
//
//pclass:hotpath
func Checked(keys []int, scratch []int) int {
	if len(scratch) < len(keys) {
		panic(fmt.Sprintf("hotpath: scratch %d short of %d", len(scratch), len(keys)))
	}
	if scratch == nil {
		scratch = make([]int, len(keys)) //pclass:allow-alloc cold start, pool miss
	}
	return scratch[0]
}

type pair struct{ a, b int }

func work() {}
