package core

// Test hooks for the external core_test package.
var (
	FuzzTokens   = fuzzTokens
	RenderResult = renderResult
	WatchParses  = watchParses
)
