package kmem

// Live returns the number of live objects (for leak tests).
func (a *Arena) Live() int { return len(a.objects) }

// NumCells returns the number of arenas.
func (s *Space) NumCells() int { return len(s.arenas) }

// Size returns the word count of the object at addr (0 if unmapped).
func (a *Arena) Size(addr Addr) int {
	if obj := a.lookup(addr); obj != nil {
		return len(obj.words)
	}
	return 0
}
