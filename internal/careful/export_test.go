package careful

// Err returns the sticky error state without closing the window.
func (c *Ctx) Err() error { return c.err }
