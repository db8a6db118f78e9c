package oracle

// Exported for the external tests in tier0_test.go, which need
// rangered (and rangered imports this package).
var (
	Float64Tier0 = float64Tier0
	Float64Ziv   = float64Ziv
)
