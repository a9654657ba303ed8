package sim

import "context"

// runSynthetic and runWorkload are the context-free spellings most tests
// want (library users get them from package nord).
func runSynthetic(c SynthConfig) (Result, error) {
	return RunSyntheticOpts(context.Background(), c, RunOptions{})
}

func runWorkload(c WorkloadConfig) (Result, error) {
	return RunWorkloadOpts(context.Background(), c, RunOptions{})
}
