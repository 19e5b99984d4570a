package uarch

// Test hooks for the external census test (census_test.go, package
// uarch_test), which builds scenario stimuli through internal/gen and so
// cannot live inside package uarch.
var (
	RandProgram    = randProgram
	BranchyProgram = branchyProgram
)

// RAS and Loop expose the core's return address stack and loop predictor.
func (c *Core) RAS() *RAS            { return c.ras }
func (c *Core) Loop() *LoopPredictor { return c.loop }
