package farm

import "rckalign/internal/trace"

// ActivityOf exposes a session's activity sink, whose intervals are the
// report's busy time, so tests can feed it intervals directly.
func ActivityOf(s *Session) trace.Sink { return &s.act }

// Resident reports whether the cache model holds the structure for the
// slave.
func (c *StructCache) Resident(slave, id int) bool {
	lru := c.slaves[slave]
	return lru != nil && lru.resident[id]
}
