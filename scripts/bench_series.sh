# bench_series.sh — the tracked root benchmark series, one -bench regexp
# per BENCH_*.json file. Sourced by bench.sh, which records them, and by
# bench_diff.sh, which gates them, so both cover the same benchmarks.
series_importance='BenchmarkAblation|BenchmarkMCShapleyParallel|BenchmarkKNNShapley|BenchmarkKNNPredictBatch|BenchmarkPipelineRunObs|BenchmarkServeRegister|BenchmarkServeImportance'
series_whatif='^BenchmarkWhatIf$'
series_neighbor='^(BenchmarkNeighborTopK|BenchmarkNeighborOrder|BenchmarkNeighborBuild)$'
series_incremental='^BenchmarkIncremental$'
