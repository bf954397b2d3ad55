package planner

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestScenarioSetupIsPureFunction: a scenario's base and parameters depend
// on (name, seed) alone — not on how many intents the process generated
// before, and not on what else is being set up at the same moment. The
// version tags in Params.Intent used to come from a process-wide counter:
// a second fig10 setup tagged fsw.pod0.0 with 31 instead of 25, every
// planner state and fingerprint downstream moved with it, and the daemon's
// snapshot cache (which builds different scenario keys concurrently) raced
// on the counter. Run under -race.
func TestScenarioSetupIsPureFunction(t *testing.T) {
	render := func(name string) (fingerprint, params string) {
		snap, p, err := ScenarioSetup(name, 1)
		if err != nil {
			t.Errorf("setup %s: %v", name, err)
			return "", ""
		}
		fp, err := snap.Fingerprint()
		if err != nil {
			t.Errorf("fingerprint %s: %v", name, err)
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Errorf("marshal %s params: %v", name, err)
		}
		return fp, string(data)
	}
	for _, name := range ScenarioNames() {
		wantFP, wantParams := render(name)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fp, params := render(name)
				if fp != wantFP {
					t.Errorf("%s: base fingerprint %s on a later setup, %s on the first", name, fp, wantFP)
				}
				if params != wantParams {
					t.Errorf("%s: Params differ between setups in one process:\n%s\nvs\n%s", name, params, wantParams)
				}
			}()
		}
		wg.Wait()
	}
}
