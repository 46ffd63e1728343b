package subgraph

import "repro/internal/rtlil"

// TopoCells orders the sub-graph cells so drivers precede readers. Ports
// are visited in the cell library's fixed order (not the Conn map's) so
// the ordering — and hence AIG and SAT variable numbering — is
// deterministic for a given input order.
func TopoCells(ix *rtlil.Index, cells []*rtlil.Cell) []*rtlil.Cell {
	inSet := make(map[*rtlil.Cell]bool, len(cells))
	for _, c := range cells {
		inSet[c] = true
	}
	order := make([]*rtlil.Cell, 0, len(cells))
	state := map[*rtlil.Cell]int8{}
	var visit func(c *rtlil.Cell)
	visit = func(c *rtlil.Cell) {
		if state[c] != 0 {
			return
		}
		state[c] = 1
		for _, port := range rtlil.InputPorts(c.Type) {
			for _, b := range ix.Map(c.Port(port)) {
				if b.IsConst() {
					continue
				}
				if d := ix.DriverCell(b); d != nil && inSet[d] {
					visit(d)
				}
			}
		}
		state[c] = 2
		order = append(order, c)
	}
	for _, c := range cells {
		visit(c)
	}
	return order
}
