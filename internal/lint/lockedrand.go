package lint

import (
	"osdp/internal/lint/analysis"
)

// noiseDiscipline lists the packages where randomness IS privacy noise:
// everything on the charge-and-release path. In these packages every
// random draw must flow through internal/noise (whose sources are
// concurrency-safe once wrapped with noise.Locked), or the released
// distribution silently depends on generator races. Generator and
// benchmark packages (tippers, dpbench, experiments, examples, ...)
// draw public synthetic data and are deliberately out of scope.
var noiseDiscipline = []string{
	"osdp/internal/core",
	"osdp/internal/mechanism",
	"osdp/internal/histogram",
	"osdp/internal/server",
	"osdp/internal/ledger",
	"osdp/internal/audit",
	"osdp/internal/dawa",
	"osdp/internal/ahp",
	"osdp/internal/agrid",
	"osdp/internal/hier",
	"osdp/internal/privbayes",
}

// credentialExempt may import crypto/rand: API keys, session IDs, and
// request IDs MUST come from a CSPRNG, and none of that randomness is
// privacy noise. math/rand stays forbidden there too.
var credentialExempt = []string{
	"osdp/internal/ledger",
	"osdp/internal/server",
}

// LockedRand enforces the noise-source discipline from DESIGN.md
// "Concurrency & memory model": privacy-bearing packages must not read
// math/rand or crypto/rand directly — noise flows through
// internal/noise so it can be serialised by noise.Locked.
var LockedRand = &analysis.Analyzer{
	Name: "lockedrand",
	Doc:  "forbid math/rand and crypto/rand outside internal/noise; privacy noise must use the noise package's locked sources",
	Run:  runLockedRand,
}

func runLockedRand(pass *analysis.Pass) error {
	if !pass.PathIn(noiseDiscipline...) || pass.PathIn("osdp/internal/noise") {
		return nil
	}
	credOK := pass.PathIn(credentialExempt...)
	for _, f := range pass.Files {
		for _, path := range []string{"math/rand", "math/rand/v2"} {
			if imp, ok := importsPath(f, path); ok {
				pass.Reportf(imp.Pos(), "import of %s in privacy-bearing package %s: sample noise via internal/noise (locked sources) instead", path, pass.Path)
			}
		}
		if imp, ok := importsPath(f, "crypto/rand"); ok && !credOK {
			pass.Reportf(imp.Pos(), "import of crypto/rand in privacy-bearing package %s: sample noise via internal/noise (use noise.NewSecureSource for CSPRNG draws)", pass.Path)
		}
	}
	return nil
}
