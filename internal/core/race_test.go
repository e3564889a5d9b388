//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what is put back: allocation counts are not the program's there.
const raceEnabled = true
