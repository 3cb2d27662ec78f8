package formext

// FreezeCost freezes r and returns the byte footprint Freeze recorded for
// cache accounting (a hook for the external test package).
func FreezeCost(r *Result) int64 { return r.Freeze().cost }
