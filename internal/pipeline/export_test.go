package pipeline

// FreshAnalyses turns cfg's analysis cache off: every pass recomputes
// dominators and loops, the baseline the equivalence suite holds the
// cached schedule to.
func FreshAnalyses(cfg *Config) { cfg.freshAnalyses = true }
