GO ?= go

.PHONY: build test race bench ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Hot-path microbenchmarks only (fast feedback while tuning). This is the
# one copy of the list: scripts/ci.sh runs this target for its benchmark
# stage, passing its CI_BENCHTIME through the environment.
bench:
	$(GO) test -run '^$$' \
	    -bench 'BenchmarkKeyIndexFind|BenchmarkCompiledMatcherClassify|BenchmarkRuleSetClassify|BenchmarkDataPlaneLookup$$|BenchmarkSwitchRunSequential|BenchmarkMatMulMLP|BenchmarkTrainStep|BenchmarkDeltaDeploy|BenchmarkFullDeploy|BenchmarkProgramFrame|BenchmarkRangeInsert|BenchmarkEntriesAfterInstalls|BenchmarkRangeDelta' \
	    -benchmem -benchtime "$${CI_BENCHTIME:-1s}" ./...

# Full CI gate: see the header of scripts/ci.sh for its stages.
ci:
	sh scripts/ci.sh
