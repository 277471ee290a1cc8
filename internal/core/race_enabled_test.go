//go:build race

package core_test

// The race detector deliberately drops a fraction of sync.Pool puts to
// shake out misuse, so the engines' scratch pools cannot be
// allocation-free under -race; the zero-alloc gates only run in normal
// builds.
const raceEnabled = true
