#!/usr/bin/env python3
"""Tests for moche_lint.py (stdlib unittest; `python3 -m pytest` works too).

Each test builds a throwaway repo root with seeded rule violations (or a
clean fixture) and runs the linter as a subprocess, so the exit-code
contract (0 clean / 1 violations / 2 usage-config error) is exercised
exactly as CI uses it.
"""

import os
import subprocess
import sys
import tempfile
import unittest

LINT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "moche_lint.py")

CONTRACT = ("// Ownership & thread-safety: value type owned by the caller;\n"
            "// no thread shares it.\n")

CLEAN_HEADER = CONTRACT + """
#ifndef FIXTURE_H_
#define FIXTURE_H_
namespace f {
int Add(int a, int b);
}
#endif
"""


class LintFixture(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        os.makedirs(os.path.join(self.root, "src", "util"))
        os.makedirs(os.path.join(self.root, "scripts"))
        self.config = os.path.join(self.root, "scripts", "moche_lint.conf")
        self.write_config("")

    def tearDown(self):
        self._tmp.cleanup()

    def write_config(self, text):
        with open(self.config, "w", encoding="utf-8") as f:
            f.write(text)

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    def run_lint(self, *extra):
        return subprocess.run(
            [sys.executable, LINT, "--root", self.root,
             "--config", self.config, *extra],
            capture_output=True, text=True)

    def assert_flags(self, rule, proc):
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn(f"[{rule}]", proc.stdout)

    def assert_clean(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout, "")


class CleanFixtureTest(LintFixture):
    def test_clean_tree_exits_zero(self):
        self.write("src/util/clean.h", CLEAN_HEADER)
        self.write("src/util/clean.cc",
                   '#include "util/clean.h"\n'
                   "namespace f { int Add(int a, int b)"
                   " { return a + b; } }\n")
        self.assert_clean(self.run_lint())

    def test_no_files_is_usage_error(self):
        # An empty scan (nothing under src/bench/examples) must not report
        # success: exit 2, like any other misuse.
        self.assertEqual(self.run_lint().returncode, 2)


class RawThreadRuleTest(LintFixture):
    def test_flags_std_thread(self):
        self.write("src/util/w.cc", "#include <thread>\nstd::thread t;\n")
        self.assert_flags("raw-thread", self.run_lint())

    def test_flags_fork_and_async(self):
        self.write("src/util/w.cc", "int main() { fork(); }\n")
        self.assert_flags("raw-thread", self.run_lint())
        self.write("src/util/w.cc", "auto f = std::async(g);\n")
        self.assert_flags("raw-thread", self.run_lint())

    def test_parallel_module_is_exempt(self):
        self.write("src/util/parallel.cc", "std::thread worker;\n")
        self.assert_clean(self.run_lint())

    def test_comment_mention_does_not_fire(self):
        self.write("src/util/w.cc",
                   "// std::thread is banned outside util/parallel\n"
                   "int x;\n")
        self.assert_clean(self.run_lint())


class FloatFormatRuleTest(LintFixture):
    def declare_writer(self, rel="src/util/w.cc"):
        self.write_config(f"artifact-writer {rel}\n")

    def test_printf_float_in_artifact_writer(self):
        self.declare_writer()
        self.write("src/util/w.cc",
                   'void f(double v) { printf("%.6f", v); }\n')
        self.assert_flags("float-format", self.run_lint())

    def test_stream_insertion_in_artifact_writer(self):
        self.declare_writer()
        self.write("src/util/w.cc", "void f() { file << value; }\n")
        self.assert_flags("float-format", self.run_lint())

    def test_to_string_and_setprecision(self):
        self.declare_writer()
        self.write("src/util/w.cc", "auto s = std::to_string(0.5);\n")
        self.assert_flags("float-format", self.run_lint())
        self.write("src/util/w.cc", "os << std::setprecision(17);\n")
        self.assert_flags("float-format", self.run_lint())

    def test_shift_assign_is_not_stream_insertion(self):
        self.declare_writer()
        self.write("src/util/w.cc", "void f(int& code) { code <<= 4; }\n")
        self.assert_clean(self.run_lint())

    def test_non_writer_file_may_printf_floats(self):
        # Human-readable output (logs, tables) is free to use %f.
        self.write("src/util/w.cc",
                   'void f(double v) { printf("%.2f", v); }\n')
        self.assert_clean(self.run_lint())

    def test_integer_printf_is_fine_in_writer(self):
        self.declare_writer()
        self.write("src/util/w.cc",
                   'void f(size_t v) { printf("%zu,%s", v, "x"); }\n')
        self.assert_clean(self.run_lint())


class SortDoublesRuleTest(LintFixture):
    def test_flags_unaudited_sort_in_src(self):
        self.write("src/util/w.cc",
                   "void f(std::vector<double>* v)"
                   " { std::sort(v->begin(), v->end()); }\n")
        self.assert_flags("sort-doubles", self.run_lint())

    def test_flags_nth_element_and_stable_sort(self):
        self.write("src/util/w.cc",
                   "void f() { std::nth_element(b, m, e); }\n")
        self.assert_flags("sort-doubles", self.run_lint())
        self.write("src/util/w.cc",
                   "void f() { std::stable_sort(b, e); }\n")
        self.assert_flags("sort-doubles", self.run_lint())

    def test_flags_sort_finite(self):
        self.write("src/util/w.cc",
                   "void f(std::vector<double>* v) { SortFinite(v); }\n")
        self.assert_flags("sort-doubles", self.run_lint())
        self.write("src/util/w.cc",
                   "// moche-lint: allow(sort-doubles): screened above\n"
                   "void f(std::vector<double>* v) { SortFinite(v); }\n")
        self.assert_clean(self.run_lint())

    def test_inline_allow_with_reason_suppresses(self):
        self.write("src/util/w.cc",
                   "// moche-lint: allow(sort-doubles): ints only\n"
                   "void f() { std::sort(b, e); }\n")
        self.assert_clean(self.run_lint())

    def test_inline_allow_without_reason_is_a_violation(self):
        self.write("src/util/w.cc",
                   "// moche-lint: allow(sort-doubles)\n"
                   "void f() { std::sort(b, e); }\n")
        proc = self.run_lint()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[bad-allow]", proc.stdout)

    def test_allow_covers_only_adjacent_line(self):
        self.write("src/util/w.cc",
                   "// moche-lint: allow(sort-doubles): first only\n"
                   "void f() { std::sort(b, e); }\n"
                   "void g() { std::sort(b, e); }\n")
        self.assert_flags("sort-doubles", self.run_lint())

    def test_config_allowlist_suppresses_whole_file(self):
        self.write_config(
            "allow sort-doubles src/util/w.cc -- audited, NaN screened\n")
        self.write("src/util/w.cc",
                   "void f() { std::sort(b, e); std::sort(b, e); }\n")
        self.assert_clean(self.run_lint())

    def test_bench_sorts_are_not_checked(self):
        self.write("bench/w.cc", "void f() { std::sort(b, e); }\n")
        self.assert_clean(self.run_lint())


class SimdIncludeRuleTest(LintFixture):
    def test_flags_immintrin_outside_kernel_tus(self):
        self.write("src/util/w.cc", "#include <immintrin.h>\n")
        self.assert_flags("simd-include", self.run_lint())

    def test_flags_arm_neon(self):
        self.write("src/util/w.cc", "#include <arm_neon.h>\n")
        self.assert_flags("simd-include", self.run_lint())

    def test_kernel_tus_are_exempt(self):
        self.write("src/util/simd_avx2.cc", "#include <immintrin.h>\n")
        self.write("src/util/simd_neon.cc", "#include <arm_neon.h>\n")
        self.assert_clean(self.run_lint())


class SeededRngRuleTest(LintFixture):
    def test_flags_rand_srand_random_device_time(self):
        for snippet in ("int x = rand();\n",
                        "srand(42);\n",
                        "std::random_device rd;\n",
                        "auto seed = time(NULL);\n",
                        "auto seed = time(nullptr);\n"):
            self.write("src/util/w.cc", snippet)
            self.assert_flags("seeded-rng", self.run_lint())

    def test_prose_time_does_not_fire(self):
        # time(...) with a real argument expression is some other function.
        self.write("src/util/w.cc", "double t = elapsed_time(clock_id);\n")
        self.assert_clean(self.run_lint())


class ContractHeaderRuleTest(LintFixture):
    def test_header_without_contract_flagged(self):
        self.write("src/util/w.h",
                   "// A widget.\n#ifndef W_H_\n#define W_H_\n#endif\n")
        self.assert_flags("contract-header", self.run_lint())

    def test_header_with_contract_passes(self):
        self.write("src/util/w.h", CLEAN_HEADER)
        self.assert_clean(self.run_lint())

    def test_needs_both_ownership_and_threading(self):
        self.write("src/util/w.h",
                   "// Thread-safe widget registry.\n"
                   "#ifndef W_H_\n#define W_H_\n#endif\n")
        self.assert_flags("contract-header", self.run_lint())

    def test_source_files_are_not_required_to_carry_it(self):
        self.write("src/util/w.cc", "int x;\n")
        self.assert_clean(self.run_lint())


class FuzzTargetRuleTest(LintFixture):
    ENTRY = ("#include <cstddef>\n#include <cstdint>\n"
             "extern \"C\" int LLVMFuzzerTestOneInput(const uint8_t* d,"
             " size_t n) { (void)d; (void)n; return 0; }\n")

    def write_wired_target(self, stem="sample_fuzz"):
        self.write(f"fuzz/{stem}.cc", self.ENTRY)
        self.write("fuzz/CMakeLists.txt",
                   f"moche_add_fuzz_target({stem} LIBS moche::util)\n")
        self.write(f"fuzz/corpus/{stem}/seed_00", "bytes")

    def test_fully_wired_target_is_clean(self):
        self.write_wired_target()
        self.assert_clean(self.run_lint())

    def test_missing_entry_point_flagged(self):
        self.write_wired_target()
        self.write("fuzz/sample_fuzz.cc", "int main() { return 0; }\n")
        proc = self.run_lint()
        self.assert_flags("fuzz-target", proc)
        self.assertIn("LLVMFuzzerTestOneInput", proc.stdout)

    def test_entry_point_in_comment_does_not_count(self):
        self.write_wired_target()
        self.write("fuzz/sample_fuzz.cc",
                   "// int LLVMFuzzerTestOneInput(const uint8_t*, size_t)\n"
                   "int main() { return 0; }\n")
        self.assert_flags("fuzz-target", self.run_lint())

    def test_unregistered_target_flagged(self):
        self.write_wired_target()
        self.write("fuzz/CMakeLists.txt", "# no registrations\n")
        proc = self.run_lint()
        self.assert_flags("fuzz-target", proc)
        self.assertIn("not registered", proc.stdout)

    def test_empty_corpus_flagged(self):
        self.write_wired_target()
        os.remove(os.path.join(self.root, "fuzz/corpus/sample_fuzz/seed_00"))
        proc = self.run_lint()
        self.assert_flags("fuzz-target", proc)
        self.assertIn("seed corpus", proc.stdout)

    def test_missing_corpus_dir_flagged(self):
        self.write(f"fuzz/sample_fuzz.cc", self.ENTRY)
        self.write("fuzz/CMakeLists.txt",
                   "moche_add_fuzz_target(sample_fuzz LIBS moche::util)\n")
        self.assert_flags("fuzz-target", self.run_lint())

    def test_infrastructure_files_are_exempt(self):
        # provider.h / replay_main.cc do not match *_fuzz.cc and carry no
        # entry point of their own.
        self.write("fuzz/replay_main.cc", "int main() { return 0; }\n")
        self.write("fuzz/provider.h", "// helpers\nint x;\n")
        self.assert_clean(self.run_lint())

    def test_inline_allow_suppresses(self):
        self.write("fuzz/sample_fuzz.cc",
                   "// moche-lint: allow(fuzz-target): scaffold, wired in "
                   "the next commit\n" + self.ENTRY)
        self.write("fuzz/CMakeLists.txt", "# nothing yet\n")
        self.assert_clean(self.run_lint())


class ConfigErrorTest(LintFixture):
    def test_allow_without_reason_is_config_error(self):
        self.write_config("allow sort-doubles src/util/w.cc\n")
        self.write("src/util/w.h", CLEAN_HEADER)
        proc = self.run_lint()
        self.assertEqual(proc.returncode, 2)
        self.assertIn("reason", proc.stderr)

    def test_unknown_rule_is_config_error(self):
        self.write_config("allow no-such-rule src/x.cc -- because\n")
        self.write("src/util/w.h", CLEAN_HEADER)
        self.assertEqual(self.run_lint().returncode, 2)

    def test_unknown_directive_is_config_error(self):
        self.write_config("permit everything\n")
        self.write("src/util/w.h", CLEAN_HEADER)
        self.assertEqual(self.run_lint().returncode, 2)

    def test_missing_config_file_is_config_error(self):
        os.remove(self.config)
        self.write("src/util/w.h", CLEAN_HEADER)
        self.assertEqual(self.run_lint().returncode, 2)


class ExplicitPathTest(LintFixture):
    def test_checking_one_file_by_path(self):
        self.write("src/util/bad.cc", "std::thread t;\n")
        self.write("src/util/good.cc", "int x;\n")
        proc = self.run_lint(os.path.join(self.root, "src/util/good.cc"))
        self.assert_clean(proc)
        proc = self.run_lint(os.path.join(self.root, "src/util/bad.cc"))
        self.assert_flags("raw-thread", proc)


if __name__ == "__main__":
    unittest.main()
