// jobsearch_adhoc: the paper's §3.3 experiment as ad-hoc traffic. Readers
// send literal query text (Connection::OpenCursor, SET evaluation_mode = bnl)
// with a seeded pre-selection (region, availability threshold) and a seeded
// preference: four skill atoms in Pareto order plus HIGHEST(experience).
// Minorities of the reads are CASCADE, GROUPING region, a join to the small
// `regions` table (preference pushdown), and the paper's plain-SQL
// alternatives (conjunctive / disjunctive WHERE). Values differ per request,
// so the engine's key, skyline and filter caches almost always miss. The
// writer appends job applications to a table no read touches.

#include "inprocess.h"
#include "workload/generators.h"

namespace prefbench {
namespace {

/// Profiles in the relation (74 attributes each). Sized so the two readers
/// complete well over 1000 reads per run on a 4-core host.
constexpr size_t kProfiles = 20000;

const std::vector<std::string> kSkills = {
    "java", "C++", "SQL", "COBOL", "perl", "python", "SAP", "oracle",
    "javascript", "assembler", "fortran", "delphi"};
const std::vector<std::string> kRegions = {
    "north", "south", "east", "west", "bavaria", "saxony", "hesse",
    "berlin", "hamburg", "rhineland", "swabia", "franconia", "palatinate",
    "baden", "thuringia", "holstein"};
const char* kSkillColumns[4] = {"skill_a", "skill_b", "skill_c", "skill_d"};

class JobSearchAdhoc : public InProcessWorkload {
 public:
  JobSearchAdhoc() : InProcessWorkload(DirectOptions()) {}

  /// Two CPU-bound readers leave the 4-core host a core for the writer and
  /// the engine's background reclaimer; three oversubscribed it and
  /// doubled the run-to-run spread.
  size_t readers() const override { return 2; }
  double write_rate() const override { return 50; }

  ReadSpec NextRead(prefsql::Random& rng) override {
    std::string atoms[4];
    for (int i = 0; i < 4; ++i) {
      atoms[i] = std::string(kSkillColumns[i]) + " = " +
                 Quote(rng.Choice(kSkills));
    }
    const std::string pareto = atoms[0] + " AND " + atoms[1] + " AND " +
                               atoms[2] + " AND " + atoms[3] +
                               " AND HIGHEST(experience)";
    const std::string region = Quote(rng.Choice(kRegions));
    const int64_t pick = rng.Uniform(0, 99);
    ReadSpec spec;
    std::string select = "SELECT id FROM ";
    std::string from = "profiles";
    std::string where, preferring = pareto, tail;
    if (pick < 20) {
      // SQL solutions 1 and 2 of §3.3: the four criteria as hard
      // conjunctive or disjunctive conditions. The shares are uneven so the
      // median does not sit between the two shapes' latencies.
      const bool conjunctive = pick >= 15;
      spec.preference = false;
      spec.shape = conjunctive ? "sql_conjunctive" : "sql_disjunctive";
      const char* op = conjunctive ? " AND " : " OR ";
      spec.text = "SELECT id FROM profiles WHERE region = " + region +
                  " AND availability < " +
                  std::to_string(rng.Uniform(60, 300)) + " AND (" + atoms[0] +
                  op + atoms[1] + op + atoms[2] + op + atoms[3] + ")";
      return spec;
    } else if (pick < 30) {
      spec.shape = "cascade";
      where = "region = " + region + " AND availability < " +
              std::to_string(rng.Uniform(60, 300));
      preferring = "(" + atoms[0] + " AND " + atoms[1] + ") CASCADE (" +
                   atoms[2] + " AND " + atoms[3] +
                   " AND HIGHEST(experience))";
    } else if (pick < 40) {
      spec.shape = "grouping";
      select = "SELECT id, region FROM ";
      where = "region IN (" + region + ", " + Quote(rng.Choice(kRegions)) +
              ", " + Quote(rng.Choice(kRegions)) +
              ") AND availability < " + std::to_string(rng.Uniform(20, 100));
      tail = " GROUPING region";
      spec.grouping = "region";
    } else if (pick < 50) {
      spec.shape = "join";
      from = "profiles JOIN regions ON region = rname";
      where = "tier = " + std::to_string(rng.Uniform(0, 3)) +
              " AND availability < " + std::to_string(rng.Uniform(15, 75));
    } else {
      spec.shape = "pareto";
      where = "region = " + region + " AND availability < " +
              std::to_string(rng.Uniform(60, 300));
    }
    spec.text = select + from + " WHERE " + where + " PREFERRING " +
                preferring + tail;
    spec.candidates_sql =
        "SELECT id, region, skill_a, skill_b, skill_c, skill_d, experience "
        "FROM " + from + " WHERE " + where;
    return spec;
  }

  std::string NextWrite(uint64_t k, prefsql::Random& rng) override {
    return "INSERT INTO applications VALUES (" + std::to_string(k) + ", " +
           std::to_string(rng.Uniform(0, kProfiles - 1)) + ", " +
           std::to_string(rng.Uniform(0, 365)) + ")";
  }

 protected:
  prefsql::Status Load(uint64_t seed) override {
    prefsql::JobProfileConfig cfg;
    cfg.rows = kProfiles;
    cfg.seed = seed;
    PSQL_RETURN_IF_ERROR(
        prefsql::GenerateJobProfiles(shared_engine().database(), cfg));
    std::string regions =
        "CREATE TABLE regions (rname TEXT, tier INTEGER);"
        "CREATE TABLE applications (id INTEGER, profile INTEGER, "
        "day INTEGER);"
        "INSERT INTO regions VALUES ";
    for (size_t i = 0; i < kRegions.size(); ++i) {
      regions += (i ? ", (" : "(") + Quote(kRegions[i]) + ", " +
                 std::to_string(i % 4) + ")";
    }
    return writer().ExecuteScript(regions).status();
  }
};

}  // namespace

std::unique_ptr<Workload> MakeJobSearchAdhoc() {
  return std::make_unique<JobSearchAdhoc>();
}

}  // namespace prefbench
