#!/usr/bin/env bash
# Fails when a test name in a `go test -run` pattern of the CI workflow
# selects no test in the packages its step names. `go test -run` with a
# pattern that matches nothing passes silently, so a test that is renamed or
# deleted would drop out of its CI step unnoticed.
#
# Usage: bash .github/ci-selectors.sh [workflow.yml]   (or: make ci-selectors)
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
failed=0
checked=0
declare -A listed # package -> its top-level tests, one per line

while IFS= read -r line; do
	pattern=$(sed -n "s/.*-run '\([^']*\)'.*/\1/p" <<<"$line")
	[ -n "$pattern" ] || continue
	pkgs=$(sed "s/.*-run '[^']*'//" <<<"$line" | tr ' ' '\n' | grep -E '^\.' || true)
	[ -n "$pkgs" ] || pkgs=.
	tests=""
	for pkg in $pkgs; do
		if [ -z "${listed[$pkg]+set}" ]; then
			listed[$pkg]=$(go test -list . "$pkg" | grep -E '^(Test|Benchmark|Example|Fuzz)' || true)
		fi
		tests+="${listed[$pkg]}"$'\n'
	done
	IFS='|' read -ra names <<<"$pattern"
	for name in "${names[@]}"; do
		checked=$((checked + 1))
		if ! grep -Eq -- "$name" <<<"$tests"; then
			echo "ci-selectors: -run name $name selects no test in $(echo $pkgs)" >&2
			failed=1
		fi
	done
done < <(grep -E "go test .*-run '" "$workflow")

if [ "$checked" -eq 0 ]; then
	echo "ci-selectors: no -run pattern found in $workflow" >&2
	exit 1
fi
if [ "$failed" -ne 0 ]; then
	exit 1
fi
echo "ci-selectors: $checked -run names in $workflow each select a test"
