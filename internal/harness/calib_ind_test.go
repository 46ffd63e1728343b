package harness

import (
	"fmt"
	"testing"
)

// TestCalibrationIndustrial prints the industrial summary while
// calibrating the industrial recipe.
func TestCalibrationIndustrial(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration print skipped in -short mode")
	}
	sec, err := RunCases(IndustrialCases(3), Options{Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(IndustrialSummary(sec))
}
