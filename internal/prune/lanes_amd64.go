package prune

// haveLanes: affineLanes is lanes_amd64.s, SSE2 (the GOAMD64=v1
// baseline).
const haveLanes = true

//go:noescape
func affineLanes(s1 string, t, rows []int16)
