//go:build !race

package main

// smokeSeconds is the smoke test's window.
const smokeSeconds = 1
