package ml

// StoresD2 reports whether ix holds a query×train distance matrix.
func StoresD2(ix *NeighborIndex) bool { return ix.d2.Load() != nil }

// StoresOrders reports whether ix holds its own query×train order table.
func StoresOrders(ix *NeighborIndex) bool { return ix.ordersReady.Load() }

// IsDerived reports whether ix answers from a root's order table.
func IsDerived(ix *NeighborIndex) bool { return ix.delta != nil }
