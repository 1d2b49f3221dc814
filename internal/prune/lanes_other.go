//go:build !amd64

package prune

// haveLanes: other GOARCHes score every pair with affineScore.
const haveLanes = false

func affineLanes(s1 string, t, rows []int16) { panic("prune: no lane kernel") }
