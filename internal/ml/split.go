package ml

import (
	"fmt"
	"math/rand"
)

// KFold yields k deterministic cross-validation folds as (train, valid)
// index pairs over a dataset of n rows.
func KFold(n, k int, seed int64) ([][]int, [][]int, error) {
	if k < 2 || k > n {
		return nil, nil, fmt.Errorf("ml: k must be in [2,%d], got %d", n, k)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	trains := make([][]int, k)
	valids := make([][]int, k)
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		valids[f] = append([]int(nil), perm[lo:hi]...)
		trains[f] = append(append([]int(nil), perm[:lo]...), perm[hi:]...)
	}
	return trains, valids, nil
}
