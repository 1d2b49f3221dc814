//go:build race

package server

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random: allocation budgets that count on encoding/json's pooled
// encoder state do not hold there.
const raceEnabled = true
