package hpl

// Test fixtures shared with the external hpl_test package, whose tests
// drive the grid through the phihpl facade.
var (
	InstallMixedTestSystem = installMixedTestSystem
	SubnormalColumn32      = subnormalColumn32
)
