//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random: allocation budgets that count on a warm kernel workspace
// pool do not hold there.
const raceEnabled = true
