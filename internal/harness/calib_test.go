package harness

import (
	"fmt"
	"testing"

	"repro/internal/genbench"
)

// TestCalibrationPrint is a development aid: run with
// go test -run TestCalibrationPrint -v ./internal/harness/ to see the
// current table shape while calibrating genbench recipes.
func TestCalibrationPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration print skipped in -short mode")
	}
	sec, err := RunCases(RecipeCases(genbench.Recipes()), Options{Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(TableII(sec))
	fmt.Println(TableIII(sec))
}
