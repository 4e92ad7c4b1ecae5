#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite in
# both observability configurations. CSECG_OBS=OFF compiles the obs
# facade down to no-ops, so code that only works because a Session
# happens to be attached (or that calls a facade from a hot loop) shows
# up as a failure here rather than in a stripped production build.
#
# CSECG_NATIVE_SIMD=OFF in the environment disables the kNative vector-
# extension backend so the 'native' name degrades to the reference loops;
# CI runs a second tier-1 pass this way to keep the fallback green.
#
# Warnings are errors in every leg. -Werror is passed here rather than
# set in the CMake files, so other builds of src/ (the perfbench tree,
# a user's own configure) keep warnings as warnings.
#
# Usage: scripts/check_tier1.sh [build-dir-prefix]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
prefix="${1:-${repo_root}/build-tier1}"
native_simd="${CSECG_NATIVE_SIMD:-ON}"
if [[ "${native_simd}" != "ON" ]]; then
  prefix="${prefix}-nonative"
fi

for obs in ON OFF; do
  build_dir="${prefix}-obs-$(echo "${obs}" | tr '[:upper:]' '[:lower:]')"
  echo "== tier 1: CSECG_OBS=${obs} CSECG_NATIVE_SIMD=${native_simd}" \
       "(${build_dir}) =="
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="${CXXFLAGS:-} -Werror" \
    -DCSECG_OBS="${obs}" \
    -DCSECG_NATIVE_SIMD="${native_simd}" \
    -DCSECG_BUILD_BENCHMARKS=OFF \
    -DCSECG_BUILD_EXAMPLES=OFF
  cmake --build "${build_dir}" -j"$(nproc)"
  ctest --output-on-failure --test-dir "${build_dir}"
done

echo "tier 1: both obs configurations passed" \
     "(CSECG_NATIVE_SIMD=${native_simd})"
