// The paper's running example (Examples 1-2, Section 6.3): two months of
// COVID-19 case data fail the KS test on age groups. Two different pieces
// of domain knowledge — "large health authorities drive spread" vs
// "seniors are hit harder" — yield two different most-comprehensible
// explanations of the SAME failed test, both of the same minimal size.
//
// Run: ./build/examples/example_covid_case_study

#include <cstdio>

#include "core/moche.h"
#include "datasets/covid.h"

int main() {
  using namespace moche;
  using datasets::CovidData;
  using datasets::HealthAuthority;

  const CovidData data = datasets::MakeCovidData();
  const KsInstance instance = data.MakeInstance(/*alpha=*/0.05);

  auto outcome = RunInstance(instance);
  if (!outcome.ok()) return 1;
  std::printf("August cases (reference): %zu\n", instance.reference.size());
  std::printf("September cases (test):   %zu\n", instance.test.size());
  std::printf("KS test at alpha=0.05: D = %.4f, p = %.4f -> %s\n\n",
              outcome->statistic, outcome->threshold,
              outcome->reject ? "FAILED" : "passed");

  Moche engine;

  // Preference 1: cases from populous health authorities first.
  auto by_population =
      engine.Explain(instance, data.PreferenceByHaPopulationDesc());
  // Preference 2: senior cases first.
  auto by_age = engine.Explain(instance, data.PreferenceByAgeGroupDesc());
  if (!by_population.ok() || !by_age.ok()) {
    std::printf("explanation failed\n");
    return 1;
  }

  std::printf("Both explanations contain %zu cases (unique minimal size).\n\n",
              by_population->k);

  std::printf("I_p (population preference) by health authority:\n");
  const std::vector<size_t> ha_counts =
      data.HaCounts(by_population->explanation.indices);
  for (int h = 0; h < 5; ++h) {
    std::printf("  %-5s %4zu\n",
                datasets::HealthAuthorityName(static_cast<HealthAuthority>(h)),
                ha_counts[h]);
  }

  std::printf("\nI_a (age preference) by age group:\n");
  const std::vector<size_t> age_counts =
      data.AgeCounts(by_age->explanation.indices);
  const char* kAgeLabels[10] = {"0-10",  "10-19", "20-29", "30-39", "40-49",
                                "50-59", "60-69", "70-79", "80-89", "90+"};
  for (int g = 0; g < 10; ++g) {
    std::printf("  %-6s %4zu\n", kAgeLabels[g], age_counts[g]);
  }

  std::printf(
      "\nInterpretation: under the population preference every removed case\n"
      "comes from FHA (the largest HA); under the age preference the removed\n"
      "cases skew senior. Same failed test, same size, different —\n"
      "equally valid — stories, each matching its user's domain knowledge.\n");
  return 0;
}
