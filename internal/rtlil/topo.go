package rtlil

// LoopError is TopoSort's error for a module with a combinational loop.
// It names one cell on the loop.
type LoopError struct {
	Cell string
}

func (e *LoopError) Error() string {
	return "rtlil: combinational loop through cell " + e.Cell
}

// TopoSort returns the indexed module's cells in a topological order of
// the combinational dependency graph: every cell appears after the cells
// driving its inputs. Sequential cells ($dff) break dependencies — their
// outputs are treated as graph sources — so any cycle reported is a true
// combinational loop, a *LoopError. The index must be current for the
// module.
func TopoSort(ix *Index) ([]*Cell, error) {
	m := ix.Module()
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Cell]int, m.NumCells())
	order := make([]*Cell, 0, m.NumCells())

	var visit func(c *Cell) error
	visit = func(c *Cell) error {
		switch color[c] {
		case black:
			return nil
		case gray:
			return &LoopError{Cell: c.Name}
		}
		color[c] = gray
		if !IsSequential(c.Type) {
			// The cell library's port order, not the Conn map's: the
			// order must not change from call to call.
			for _, port := range InputPorts(c.Type) {
				for _, b := range c.Port(port) {
					d := ix.DriverCell(b)
					if d == nil || IsSequential(d.Type) {
						continue
					}
					if err := visit(d); err != nil {
						return err
					}
				}
			}
		}
		color[c] = black
		order = append(order, c)
		return nil
	}

	// Sequential cells first (their outputs are sources), then the rest
	// in insertion order for determinism.
	for _, c := range m.Cells() {
		if IsSequential(c.Type) {
			color[c] = black
			order = append(order, c)
		}
	}
	for _, c := range m.Cells() {
		if err := visit(c); err != nil {
			return nil, err
		}
	}
	return order, nil
}
