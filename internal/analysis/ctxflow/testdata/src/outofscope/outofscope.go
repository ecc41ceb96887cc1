// Package outofscope is not a serving-path package: ctxflow ignores it.
package outofscope

import "context"

// Setup may build root contexts freely — offline tooling.
func Setup() context.Context {
	return context.Background()
}
