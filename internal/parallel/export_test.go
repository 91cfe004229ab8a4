package parallel

// Workers returns the pool size, for the tests of New and
// SetDefaultWorkers.
func (r *Runner) Workers() int { return r.workers }
