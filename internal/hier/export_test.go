package hier

// The clauses of the lifting predicate, for the external tests that waive
// them one at a time.
type Clause = clause

const (
	ClausePure    = clausePure
	ClauseOneDef  = clauseOneDef
	ClauseInArm   = clauseInArm
	ClauseSources = clauseSources
)

// Waive makes lift skip clause c until restore is called.  Tests that use
// it must not run in parallel.
func Waive(c Clause) (restore func()) {
	waived = c
	return func() { waived = 0 }
}
