// rewrite_default: sessions with the shipped default knobs
// (evaluation_mode = rewrite, the paper's §3.2 strategy) over small
// generated relations. A seeded mix of the paper's preference shapes —
// AROUND/LOWEST Pareto, CASCADE, POS/NEG, an EXPLICIT chain, BUT ONLY, and
// quality functions — plus a share of plain standard-SQL SELECTs, which
// test the pass-through claim while preference statements hold the
// engine's exclusive lock for their Aux views. The writer appends bookings
// to a table no read touches.

#include "inprocess.h"
#include "workload/generators.h"

namespace prefbench {
namespace {

constexpr size_t kCars = 1000;
constexpr size_t kHotels = 500;
constexpr size_t kTrips = 500;

const std::vector<std::string> kColors = {
    "red", "black", "silver", "white", "blue", "green", "yellow", "brown"};
const std::vector<std::string> kCategories = {
    "roadster", "passenger", "suv", "van", "coupe", "estate"};
const std::vector<std::string> kCities = {
    "Augsburg", "Munich", "Berlin", "Hamburg", "Cologne",
    "Frankfurt", "Stuttgart", "Dresden"};
const std::vector<std::string> kLocations = {
    "downtown", "suburb", "airport", "old town", "fair grounds"};

class RewriteDefault : public InProcessWorkload {
 public:
  RewriteDefault() : InProcessWorkload(prefsql::ConnectionOptions{}) {}

  /// Two sessions already queue on the exclusive lock; with three, the
  /// p99's spread over ten seeds reached 0.28.
  size_t readers() const override { return 2; }
  /// Without a pause a reader re-acquires the lock it just released before
  /// a woken waiter runs, and whether plain reads wait flips between runs.
  std::chrono::microseconds think_time() const override {
    return std::chrono::microseconds(2000);
  }
  double write_rate() const override { return 50; }

  ReadSpec NextRead(prefsql::Random& rng) override {
    const std::string price = std::to_string(rng.Uniform(50, 1000) * 100);
    const int64_t pick = rng.Uniform(0, 99);
    ReadSpec spec;
    if (pick < 20) {
      spec.preference = false;
      spec.shape = "plain";
      spec.text =
          pick % 2 ? "SELECT id, price FROM car WHERE price < " + price +
                         " AND mileage < " +
                         std::to_string(rng.Uniform(10, 200) * 1000)
                   : "SELECT id, name FROM hotels WHERE city = " +
                         Quote(rng.Choice(kCities)) + " AND stars >= " +
                         std::to_string(rng.Uniform(1, 5));
    } else if (pick < 35) {
      spec.shape = "pareto_around_lowest";
      spec.text = "SELECT id, price, mileage FROM car PREFERRING price AROUND " +
                  price + " AND LOWEST(mileage)";
      spec.candidates_sql = "SELECT id, price, mileage FROM car";
    } else if (pick < 47) {
      spec.shape = "cascade";
      spec.text = "SELECT id, category, price FROM car PREFERRING category = " +
                  Quote(rng.Choice(kCategories)) + " CASCADE price AROUND " +
                  price;
      spec.candidates_sql = "SELECT id, category, price FROM car";
    } else if (pick < 59) {
      spec.shape = "pos_neg";
      spec.text =
          "SELECT id, city, location, price FROM hotels PREFERRING city IN (" +
          Quote(rng.Choice(kCities)) + ", " + Quote(rng.Choice(kCities)) +
          ") AND location NOT IN (" + Quote(rng.Choice(kLocations)) +
          ") AND LOWEST(price)";
      spec.candidates_sql = "SELECT id, city, location, price FROM hotels";
    } else if (pick < 71) {
      spec.shape = "explicit_chain";
      size_t first = static_cast<size_t>(rng.Uniform(0, 7));
      const std::string a = Quote(kColors[first]);
      const std::string b = Quote(kColors[(first + 3) % 8]);
      const std::string c = Quote(kColors[(first + 5) % 8]);
      spec.text = "SELECT id, color, price FROM car PREFERRING color EXPLICIT (" +
                  a + " BETTER THAN " + b + ", " + b + " BETTER THAN " + c +
                  ") AND LOWEST(price)";
      spec.candidates_sql = "SELECT id, color, price FROM car";
    } else if (pick < 85) {
      // BUT ONLY filters the BMO set; checked against direct mode only.
      spec.shape = "but_only";
      spec.text =
          "SELECT id, duration, price FROM trips PREFERRING duration AROUND " +
          std::to_string(rng.Uniform(5, 25)) + " AND price AROUND " +
          std::to_string(rng.Uniform(6, 30) * 100) +
          " BUT ONLY DISTANCE(duration) <= 3";
    } else {
      spec.shape = "quality_functions";
      spec.text =
          "SELECT id, LEVEL(color), DISTANCE(price) FROM car PREFERRING color "
          "IN (" + Quote(rng.Choice(kColors)) + ", " +
          Quote(rng.Choice(kColors)) + ") AND price AROUND " + price;
      spec.candidates_sql = "SELECT id, color, price FROM car";
    }
    return spec;
  }

  std::string NextWrite(uint64_t k, prefsql::Random& rng) override {
    return "INSERT INTO bookings VALUES (" + std::to_string(k) + ", " +
           std::to_string(rng.Uniform(0, kTrips - 1)) + ", " +
           std::to_string(rng.Uniform(0, kHotels - 1)) + ")";
  }

  /// The default (rewrite) session's rows must equal direct-mode rows.
  std::string CrossCheck(const ReadSpec& spec) override {
    prefsql::Connection rewrite, direct(DirectOptions());
    rewrite.Attach(engine());
    direct.Attach(engine());
    auto a = rewrite.Execute(spec.text);
    auto b = direct.Execute(spec.text);
    if (!a.ok() || !b.ok()) return "rewrite or direct execution failed";
    if (RenderRows(*a) != RenderRows(*b)) {
      return "rewrite-mode rows differ from direct-mode rows";
    }
    return "";
  }

 protected:
  prefsql::Status Load(uint64_t seed) override {
    prefsql::Database& db = shared_engine().database();
    PSQL_RETURN_IF_ERROR(prefsql::GenerateUsedCars(db, kCars, seed));
    PSQL_RETURN_IF_ERROR(prefsql::GenerateHotels(db, kHotels, seed + 1));
    PSQL_RETURN_IF_ERROR(prefsql::GenerateTrips(db, kTrips, seed + 2));
    return writer()
        .Execute("CREATE TABLE bookings (id INTEGER, trip INTEGER, "
                 "hotel INTEGER)")
        .status();
  }
};

}  // namespace

std::unique_ptr<Workload> MakeRewriteDefault() {
  return std::make_unique<RewriteDefault>();
}

}  // namespace prefbench
