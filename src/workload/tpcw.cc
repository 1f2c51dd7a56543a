#include "workload/tpcw.h"

#include <algorithm>

#include "common/value.h"

namespace apollo::workload {

namespace {

using common::Value;

std::string RandName(util::Rng& rng, const char* stem) {
  return std::string(stem) + std::to_string(rng.UniformInt(0, 499));
}

}  // namespace

const std::vector<std::string>& TpcwWorkload::Subjects() {
  static const std::vector<std::string> kSubjects = {
      "ARTS",       "BIOGRAPHIES", "BUSINESS",  "CHILDREN",
      "COMPUTERS",  "COOKING",     "HEALTH",    "HISTORY",
      "HOME",       "HUMOR",       "LITERATURE", "MYSTERY",
      "NON-FICTION", "PARENTING",  "POLITICS",  "REFERENCE",
      "RELIGION",   "ROMANCE",     "SELF-HELP", "SCIENCE-NATURE",
      "SCIENCE-FICTION", "SPORTS", "YOUTH",     "TRAVEL"};
  return kSubjects;
}

TpcwWorkload::TpcwWorkload(TpcwConfig config) : config_(std::move(config)) {
  next_order_id_ = config_.num_orders + 1;
}

util::Status TpcwWorkload::Setup(db::Database* db) {
  using common::ValueType;
  util::Rng rng(config_.seed);
  const auto& subjects = Subjects();

  // ---- Schemas ----
  {
    db::Schema s(T("COUNTRY"), {{"CO_ID", ValueType::kInt},
                                {"CO_NAME", ValueType::kString}});
    s.AddIndex("PRIMARY", {"CO_ID"});
    APOLLO_RETURN_NOT_OK(db->CreateTable(std::move(s)));
  }
  {
    db::Schema s(T("AUTHOR"), {{"A_ID", ValueType::kInt},
                               {"A_FNAME", ValueType::kString},
                               {"A_LNAME", ValueType::kString}});
    s.AddIndex("PRIMARY", {"A_ID"});
    s.AddIndex("A_LNAME_IDX", {"A_LNAME"});
    APOLLO_RETURN_NOT_OK(db->CreateTable(std::move(s)));
  }
  {
    db::Schema s(T("ADDRESS"), {{"ADDR_ID", ValueType::kInt},
                                {"ADDR_STREET1", ValueType::kString},
                                {"ADDR_CITY", ValueType::kString},
                                {"ADDR_CO_ID", ValueType::kInt}});
    s.AddIndex("PRIMARY", {"ADDR_ID"});
    APOLLO_RETURN_NOT_OK(db->CreateTable(std::move(s)));
  }
  {
    db::Schema s(T("CUSTOMER"), {{"C_ID", ValueType::kInt},
                                 {"C_UNAME", ValueType::kString},
                                 {"C_PASSWD", ValueType::kString},
                                 {"C_FNAME", ValueType::kString},
                                 {"C_LNAME", ValueType::kString},
                                 {"C_ADDR_ID", ValueType::kInt},
                                 {"C_DISCOUNT", ValueType::kDouble},
                                 {"C_SINCE", ValueType::kInt}});
    s.AddIndex("PRIMARY", {"C_ID"});
    s.AddIndex("C_UNAME_IDX", {"C_UNAME"});
    APOLLO_RETURN_NOT_OK(db->CreateTable(std::move(s)));
  }
  {
    db::Schema s(T("ITEM"), {{"I_ID", ValueType::kInt},
                             {"I_TITLE", ValueType::kString},
                             {"I_A_ID", ValueType::kInt},
                             {"I_SUBJECT", ValueType::kString},
                             {"I_COST", ValueType::kDouble},
                             {"I_STOCK", ValueType::kInt},
                             {"I_PUB_DATE", ValueType::kInt},
                             {"I_RELATED1", ValueType::kInt},
                             {"I_RELATED2", ValueType::kInt},
                             {"I_RELATED3", ValueType::kInt},
                             {"I_RELATED4", ValueType::kInt},
                             {"I_RELATED5", ValueType::kInt}});
    s.AddIndex("PRIMARY", {"I_ID"});
    s.AddIndex("I_SUBJECT_IDX", {"I_SUBJECT"});
    s.AddIndex("I_A_ID_IDX", {"I_A_ID"});
    s.AddOrderedIndex("I_TITLE_ORD", "I_TITLE");  // title search's LIKE
    APOLLO_RETURN_NOT_OK(db->CreateTable(std::move(s)));
  }
  {
    db::Schema s(T("ORDERS"), {{"O_ID", ValueType::kInt},
                               {"O_C_ID", ValueType::kInt},
                               {"O_DATE", ValueType::kInt},
                               {"O_TOTAL", ValueType::kDouble},
                               {"O_SHIP_ADDR_ID", ValueType::kInt},
                               {"O_STATUS", ValueType::kString}});
    s.AddIndex("PRIMARY", {"O_ID"});
    s.AddIndex("O_C_ID_IDX", {"O_C_ID"});
    s.AddOrderedIndex("O_ID_ORD", "O_ID");  // Best Sellers' MAX(O_ID)
    APOLLO_RETURN_NOT_OK(db->CreateTable(std::move(s)));
  }
  {
    db::Schema s(T("ORDER_LINE"), {{"OL_ID", ValueType::kInt},
                                   {"OL_O_ID", ValueType::kInt},
                                   {"OL_I_ID", ValueType::kInt},
                                   {"OL_QTY", ValueType::kInt},
                                   {"OL_DISCOUNT", ValueType::kDouble}});
    s.AddIndex("PRIMARY", {"OL_ID"});
    s.AddIndex("OL_O_ID_IDX", {"OL_O_ID"});
    s.AddIndex("OL_I_ID_IDX", {"OL_I_ID"});
    APOLLO_RETURN_NOT_OK(db->CreateTable(std::move(s)));
  }
  {
    db::Schema s(T("CC_XACTS"), {{"CX_O_ID", ValueType::kInt},
                                 {"CX_TYPE", ValueType::kString},
                                 {"CX_AMT", ValueType::kDouble},
                                 {"CX_CO_ID", ValueType::kInt}});
    s.AddIndex("CX_O_ID_IDX", {"CX_O_ID"});
    APOLLO_RETURN_NOT_OK(db->CreateTable(std::move(s)));
  }
  {
    db::Schema s(T("SHOPPING_CART"), {{"SC_ID", ValueType::kInt},
                                      {"SC_TIME", ValueType::kInt}});
    s.AddIndex("PRIMARY", {"SC_ID"});
    APOLLO_RETURN_NOT_OK(db->CreateTable(std::move(s)));
  }
  {
    db::Schema s(T("SHOPPING_CART_LINE"),
                 {{"SCL_SC_ID", ValueType::kInt},
                  {"SCL_I_ID", ValueType::kInt},
                  {"SCL_QTY", ValueType::kInt}});
    s.AddIndex("SCL_SC_ID_IDX", {"SCL_SC_ID"});
    APOLLO_RETURN_NOT_OK(db->CreateTable(std::move(s)));
  }

  // ---- Data ----
  db::Table* country = db->GetTable(T("COUNTRY"));
  for (int i = 1; i <= config_.num_countries; ++i) {
    APOLLO_RETURN_NOT_OK(country->Insert(
        {Value::Int(i), Value::Str("COUNTRY" + std::to_string(i))}));
  }

  db::Table* author = db->GetTable(T("AUTHOR"));
  for (int i = 1; i <= config_.num_authors; ++i) {
    APOLLO_RETURN_NOT_OK(author->Insert({Value::Int(i),
                                         Value::Str(RandName(rng, "FN")),
                                         Value::Str(RandName(rng, "LN"))}));
  }

  db::Table* address = db->GetTable(T("ADDRESS"));
  const int num_addresses = config_.num_customers * 2;
  for (int i = 1; i <= num_addresses; ++i) {
    APOLLO_RETURN_NOT_OK(address->Insert(
        {Value::Int(i), Value::Str("STREET" + std::to_string(i % 1000)),
         Value::Str("CITY" + std::to_string(i % 200)),
         Value::Int(rng.UniformInt(1, config_.num_countries))}));
  }

  db::Table* customer = db->GetTable(T("CUSTOMER"));
  for (int i = 1; i <= config_.num_customers; ++i) {
    APOLLO_RETURN_NOT_OK(customer->Insert(
        {Value::Int(i), Value::Str("USER" + std::to_string(i)),
         Value::Str("PWD" + std::to_string(i)),
         Value::Str(RandName(rng, "FN")), Value::Str(RandName(rng, "LN")),
         Value::Int(rng.UniformInt(1, num_addresses)),
         Value::Double(rng.UniformInt(0, 50) / 100.0),
         Value::Int(static_cast<int64_t>(rng.UniformInt(1, 3650)))}));
  }

  db::Table* item = db->GetTable(T("ITEM"));
  for (int i = 1; i <= config_.num_items; ++i) {
    auto rel = [&]() {
      return Value::Int(rng.UniformInt(1, config_.num_items));
    };
    APOLLO_RETURN_NOT_OK(item->Insert(
        {Value::Int(i), Value::Str("TITLE" + std::to_string(i)),
         Value::Int(rng.UniformInt(1, config_.num_authors)),
         Value::Str(subjects[rng.UniformInt(
             0, static_cast<int64_t>(subjects.size()) - 1)]),
         Value::Double(1.0 + rng.UniformInt(0, 9999) / 100.0),
         Value::Int(rng.UniformInt(10, 30)),
         Value::Int(rng.UniformInt(1, 3650)), rel(), rel(), rel(), rel(),
         rel()}));
  }

  db::Table* orders = db->GetTable(T("ORDERS"));
  db::Table* order_line = db->GetTable(T("ORDER_LINE"));
  db::Table* cc = db->GetTable(T("CC_XACTS"));
  int64_t ol_id = 1;
  for (int o = 1; o <= config_.num_orders; ++o) {
    int64_t c_id = rng.UniformInt(1, config_.num_customers);
    double total = 0;
    int lines = static_cast<int>(rng.UniformInt(1, 5));
    for (int l = 0; l < lines; ++l) {
      int64_t i_id = rng.UniformInt(1, config_.num_items);
      int64_t qty = rng.UniformInt(1, 4);
      total += static_cast<double>(qty) * 25.0;
      APOLLO_RETURN_NOT_OK(order_line->Insert(
          {Value::Int(ol_id++), Value::Int(o), Value::Int(i_id),
           Value::Int(qty),
           Value::Double(rng.UniformInt(0, 30) / 100.0)}));
    }
    APOLLO_RETURN_NOT_OK(orders->Insert(
        {Value::Int(o), Value::Int(c_id),
         Value::Int(rng.UniformInt(1, 3650)), Value::Double(total),
         Value::Int(rng.UniformInt(1, num_addresses)),
         Value::Str("SHIPPED")}));
    APOLLO_RETURN_NOT_OK(
        cc->Insert({Value::Int(o), Value::Str("VISA"), Value::Double(total),
                    Value::Int(rng.UniformInt(1, config_.num_countries))}));
  }
  return util::Status::OK();
}

namespace {

/// Steady-state interaction shares of the TPC-W browsing mix (WIPSb),
/// indexed by TpcwInteraction.
constexpr double kBrowsingMix[] = {
    0.2900,   // Home
    0.1100,   // New Products
    0.1100,   // Best Sellers
    0.2100,   // Product Detail
    0.1200,   // Search Request
    0.1100,   // Search Results
    0.0200,   // Shopping Cart
    0.0082,   // Customer Registration
    0.0075,   // Buy Request
    0.0069,   // Buy Confirm
    0.0030,   // Order Inquiry
    0.0025,   // Order Display
    0.0010,   // Admin Request
    0.0009,   // Admin Confirm
};

class TpcwClient : public WorkloadClient {
 public:
  TpcwClient(TpcwWorkload* workload, int index, uint64_t seed)
      : w_(workload), rng_(seed) {
    c_id_ = 1 + index % workload->config().num_customers;
    uname_ = "USER" + std::to_string(c_id_);
    passwd_ = "PWD" + std::to_string(c_id_);
    mix_.assign(std::begin(kBrowsingMix), std::end(kBrowsingMix));
    if (workload->config().item_zipf_theta > 0) {
      item_zipf_ = std::make_unique<util::Zipf>(
          static_cast<uint64_t>(workload->config().num_items),
          workload->config().item_zipf_theta);
    }
  }

  double MeanThinkSeconds() const override {
    return w_->config().mean_think_seconds;
  }

  void RunInteraction(ClientContext& ctx,
                      std::function<void()> done) override {
    TpcwInteraction next = PickNext();
    last_ = next;
    switch (next) {
      case TpcwInteraction::kHome: return Home(ctx, std::move(done));
      case TpcwInteraction::kNewProducts:
        return NewProducts(ctx, std::move(done));
      case TpcwInteraction::kBestSellers:
        return BestSellers(ctx, std::move(done));
      case TpcwInteraction::kProductDetail:
        return ProductDetail(ctx, std::move(done));
      case TpcwInteraction::kSearchRequest:
        return SearchRequest(ctx, std::move(done));
      case TpcwInteraction::kSearchResults:
        return SearchResults(ctx, std::move(done));
      case TpcwInteraction::kShoppingCart:
        return ShoppingCart(ctx, std::move(done));
      case TpcwInteraction::kCustomerRegistration:
        return CustomerRegistration(ctx, std::move(done));
      case TpcwInteraction::kBuyRequest:
        return BuyRequest(ctx, std::move(done));
      case TpcwInteraction::kBuyConfirm:
        return BuyConfirm(ctx, std::move(done));
      case TpcwInteraction::kOrderInquiry:
        return OrderInquiry(ctx, std::move(done));
      case TpcwInteraction::kOrderDisplay:
        return OrderDisplay(ctx, std::move(done));
      case TpcwInteraction::kAdminRequest:
        return AdminRequest(ctx, std::move(done));
      case TpcwInteraction::kAdminConfirm:
        return AdminConfirm(ctx, std::move(done));
      default: return done();
    }
  }

 private:
  /// Next interaction: natural successor transitions first, otherwise a
  /// draw from the browsing-mix distribution (approximating the spec's
  /// per-state transition matrix).
  TpcwInteraction PickNext() {
    switch (last_) {
      case TpcwInteraction::kSearchRequest:
        if (rng_.Bernoulli(0.90)) return TpcwInteraction::kSearchResults;
        break;
      case TpcwInteraction::kCustomerRegistration:
        if (rng_.Bernoulli(0.80)) return TpcwInteraction::kBuyRequest;
        break;
      case TpcwInteraction::kBuyRequest:
        if (rng_.Bernoulli(0.70)) return TpcwInteraction::kBuyConfirm;
        break;
      case TpcwInteraction::kOrderInquiry:
        if (rng_.Bernoulli(0.75)) return TpcwInteraction::kOrderDisplay;
        break;
      case TpcwInteraction::kAdminRequest:
        if (rng_.Bernoulli(0.80)) return TpcwInteraction::kAdminConfirm;
        break;
      default:
        break;
    }
    auto pick = static_cast<TpcwInteraction>(rng_.Discrete(mix_));
    // Buy Confirm / Admin Confirm / Search Results / Order Display only
    // make sense after their precursor; redirect stray draws.
    if (pick == TpcwInteraction::kBuyConfirm) {
      pick = TpcwInteraction::kBuyRequest;
    } else if (pick == TpcwInteraction::kAdminConfirm) {
      pick = TpcwInteraction::kAdminRequest;
    } else if (pick == TpcwInteraction::kSearchResults) {
      pick = TpcwInteraction::kSearchRequest;
    } else if (pick == TpcwInteraction::kOrderDisplay) {
      pick = TpcwInteraction::kOrderInquiry;
    }
    return pick;
  }

  int64_t RandomItem() {
    if (item_zipf_ != nullptr) {
      return static_cast<int64_t>(item_zipf_->Next(rng_));
    }
    return rng_.UniformInt(1, w_->config().num_items);
  }
  std::string RandomSubject() {
    const auto& s = TpcwWorkload::Subjects();
    return s[rng_.UniformInt(0, static_cast<int64_t>(s.size()) - 1)];
  }
  std::string T(const char* base) const { return w_->T(base); }

  // ---- Interactions ----

  void Home(ClientContext& ctx, std::function<void()> done) {
    ctx.Query("SELECT C_FNAME, C_LNAME FROM " + T("CUSTOMER") +
                  " WHERE C_ID = " + std::to_string(c_id_),
              [this, &ctx, done = std::move(done)](common::ResultSetPtr) {
                std::string in;
                for (int i = 0; i < 5; ++i) {
                  if (i > 0) in += ", ";
                  in += std::to_string(RandomItem());
                }
                ctx.Query("SELECT I_ID, I_TITLE FROM " + T("ITEM") +
                              " WHERE I_ID IN (" + in + ")",
                          [done](common::ResultSetPtr) { done(); });
              });
  }

  void NewProducts(ClientContext& ctx, std::function<void()> done) {
    ctx.Query("SELECT I_ID, I_TITLE, A_FNAME, A_LNAME FROM " + T("ITEM") +
                  ", " + T("AUTHOR") + " WHERE I_A_ID = A_ID AND I_SUBJECT = '" +
                  RandomSubject() +
                  "' ORDER BY I_PUB_DATE DESC, I_TITLE LIMIT 20",
              [done = std::move(done)](common::ResultSetPtr) { done(); });
  }

  void BestSellers(ClientContext& ctx, std::function<void()> done) {
    // The reference implementation's nested subquery is decomposed into
    // MAX(O_ID) (a parameterless ADQ) + the aggregation query, exposing
    // the correlation Apollo caches (see DESIGN.md).
    ctx.Query(
        "SELECT MAX(O_ID) AS MAX_O_ID FROM " + T("ORDERS"),
        [this, &ctx, done = std::move(done)](common::ResultSetPtr rs) {
          int64_t max_oid = (rs && !rs->empty() && rs->At(0, 0).is_int())
                                ? rs->At(0, 0).AsInt()
                                : 0;
          int64_t recent = std::max<int64_t>(0, max_oid - 3333);
          ctx.Query(
              "SELECT I_ID, I_TITLE, A_FNAME, A_LNAME, SUM(OL_QTY) AS "
              "QTY_SOLD FROM " + T("ITEM") + ", " + T("AUTHOR") + ", " +
                  T("ORDER_LINE") + " WHERE I_SUBJECT = '" +
                  RandomSubject() +
                  "' AND A_ID = I_A_ID AND OL_I_ID = I_ID AND OL_O_ID > " +
                  std::to_string(recent) +
                  " GROUP BY I_ID, I_TITLE, A_FNAME, A_LNAME"
                  " ORDER BY QTY_SOLD DESC LIMIT 50",
              [done](common::ResultSetPtr) { done(); });
        });
  }

  void ProductDetail(ClientContext& ctx, std::function<void()> done) {
    int64_t i_id = (viewed_item_ > 0 && rng_.Bernoulli(0.3)) ? viewed_item_
                                                             : RandomItem();
    ctx.Query(
        "SELECT I_ID, I_TITLE, I_A_ID, I_SUBJECT, I_COST, I_STOCK, "
        "I_PUB_DATE FROM " + T("ITEM") + " WHERE I_ID = " +
            std::to_string(i_id),
        [this, &ctx, i_id, done = std::move(done)](common::ResultSetPtr rs) {
          int64_t a_id = 1;
          if (rs && !rs->empty()) {
            int c = rs->ColumnIndex("I_A_ID");
            if (c >= 0 && rs->At(0, c).is_int()) a_id = rs->At(0, c).AsInt();
          }
          ctx.Query(
              "SELECT A_ID, A_FNAME, A_LNAME FROM " + T("AUTHOR") +
                  " WHERE A_ID = " + std::to_string(a_id),
              [this, &ctx, i_id, done](common::ResultSetPtr) {
                ctx.Query(
                    "SELECT I_RELATED1, I_RELATED2, I_RELATED3, I_RELATED4, "
                    "I_RELATED5 FROM " + T("ITEM") + " WHERE I_ID = " +
                        std::to_string(i_id),
                    [this, done](common::ResultSetPtr rel) {
                      if (rel && !rel->empty() && rel->At(0, 0).is_int()) {
                        viewed_item_ = rel->At(0, 0).AsInt();
                      }
                      done();
                    });
              });
        });
  }

  void SearchRequest(ClientContext& ctx, std::function<void()> done) {
    ctx.Query("SELECT COUNT(*) AS ITEM_COUNT FROM " + T("ITEM"),
              [done = std::move(done)](common::ResultSetPtr) { done(); });
  }

  void SearchResults(ClientContext& ctx, std::function<void()> done) {
    int kind = static_cast<int>(rng_.UniformInt(0, 2));
    std::string sql;
    if (kind == 0) {
      sql = "SELECT I_ID, I_TITLE, A_FNAME, A_LNAME FROM " + T("ITEM") +
            ", " + T("AUTHOR") + " WHERE I_A_ID = A_ID AND A_LNAME LIKE 'LN" +
            std::to_string(rng_.UniformInt(0, 499)) +
            "%' ORDER BY I_TITLE LIMIT 20";
    } else if (kind == 1) {
      sql = "SELECT I_ID, I_TITLE, A_FNAME, A_LNAME FROM " + T("ITEM") +
            ", " + T("AUTHOR") +
            " WHERE I_A_ID = A_ID AND I_TITLE LIKE 'TITLE" +
            std::to_string(rng_.UniformInt(1, 999)) +
            "%' ORDER BY I_TITLE LIMIT 20";
    } else {
      sql = "SELECT I_ID, I_TITLE, A_FNAME, A_LNAME FROM " + T("ITEM") +
            ", " + T("AUTHOR") + " WHERE I_A_ID = A_ID AND I_SUBJECT = '" +
            RandomSubject() + "' ORDER BY I_TITLE LIMIT 20";
    }
    ctx.Query(sql, [done = std::move(done)](common::ResultSetPtr) { done(); });
  }

  void EnsureCart(ClientContext& ctx, std::function<void()> then) {
    if (cart_id_ > 0) {
      then();
      return;
    }
    cart_id_ = 1000000 + static_cast<int64_t>(ctx.id()) * 100000 +
               (cart_seq_++);
    ctx.Query("INSERT INTO " + T("SHOPPING_CART") +
                  " (SC_ID, SC_TIME) VALUES (" + std::to_string(cart_id_) +
                  ", " + std::to_string(rng_.UniformInt(1, 100000)) + ")",
              [then = std::move(then)](common::ResultSetPtr) { then(); });
  }

  void ShoppingCart(ClientContext& ctx, std::function<void()> done) {
    EnsureCart(ctx, [this, &ctx, done = std::move(done)]() {
      int64_t i_id = RandomItem();
      cart_items_.push_back(i_id);
      ctx.Query(
          "INSERT INTO " + T("SHOPPING_CART_LINE") +
              " (SCL_SC_ID, SCL_I_ID, SCL_QTY) VALUES (" +
              std::to_string(cart_id_) + ", " + std::to_string(i_id) + ", " +
              std::to_string(rng_.UniformInt(1, 3)) + ")",
          [this, &ctx, done](common::ResultSetPtr) {
            ctx.Query("SELECT SCL_SC_ID, SCL_I_ID, SCL_QTY, I_TITLE, I_COST "
                      "FROM " + T("SHOPPING_CART_LINE") + ", " + T("ITEM") +
                          " WHERE SCL_I_ID = I_ID AND SCL_SC_ID = " +
                          std::to_string(cart_id_),
                      [done](common::ResultSetPtr) { done(); });
          });
    });
  }

  void CustomerRegistration(ClientContext& ctx, std::function<void()> done) {
    ctx.Query("SELECT C_ID, C_UNAME, C_PASSWD, C_FNAME, C_LNAME, C_ADDR_ID, "
              "C_DISCOUNT FROM " + T("CUSTOMER") + " WHERE C_UNAME = '" +
                  uname_ + "'",
              [done = std::move(done)](common::ResultSetPtr) { done(); });
  }

  void BuyRequest(ClientContext& ctx, std::function<void()> done) {
    EnsureCart(ctx, [this, &ctx, done = std::move(done)]() {
      ctx.Query(
          "SELECT C_ID, C_UNAME, C_FNAME, C_LNAME, C_ADDR_ID, C_DISCOUNT "
          "FROM " + T("CUSTOMER") + " WHERE C_UNAME = '" + uname_ + "'",
          [this, &ctx, done](common::ResultSetPtr rs) {
            int64_t addr_id = 1;
            if (rs && !rs->empty()) {
              int c = rs->ColumnIndex("C_ADDR_ID");
              if (c >= 0 && rs->At(0, c).is_int()) {
                addr_id = rs->At(0, c).AsInt();
              }
            }
            ship_addr_id_ = addr_id;
            ctx.Query(
                "SELECT ADDR_ID, ADDR_STREET1, ADDR_CITY, ADDR_CO_ID FROM " +
                    T("ADDRESS") + " WHERE ADDR_ID = " +
                    std::to_string(addr_id),
                [this, &ctx, done](common::ResultSetPtr ars) {
                  int64_t co_id = 1;
                  if (ars && !ars->empty()) {
                    int c = ars->ColumnIndex("ADDR_CO_ID");
                    if (c >= 0 && ars->At(0, c).is_int()) {
                      co_id = ars->At(0, c).AsInt();
                    }
                  }
                  ctx.Query(
                      "SELECT CO_ID, CO_NAME FROM " + T("COUNTRY") +
                          " WHERE CO_ID = " + std::to_string(co_id),
                      [this, &ctx, done](common::ResultSetPtr) {
                        ctx.Query(
                            "SELECT SCL_SC_ID, SCL_I_ID, SCL_QTY, I_TITLE, "
                            "I_COST FROM " + T("SHOPPING_CART_LINE") + ", " +
                                T("ITEM") +
                                " WHERE SCL_I_ID = I_ID AND SCL_SC_ID = " +
                                std::to_string(cart_id_),
                            [done](common::ResultSetPtr) { done(); });
                      });
                });
          });
    });
  }

  void BuyConfirm(ClientContext& ctx, std::function<void()> done) {
    if (cart_id_ <= 0 || cart_items_.empty()) {
      // Nothing to buy; degrade to a cart view.
      return ShoppingCart(ctx, std::move(done));
    }
    int64_t o_id = w_->NextOrderId();
    double total = 25.0 * static_cast<double>(cart_items_.size());
    ctx.Query(
        "INSERT INTO " + T("ORDERS") +
            " (O_ID, O_C_ID, O_DATE, O_TOTAL, O_SHIP_ADDR_ID, O_STATUS) "
            "VALUES (" +
            std::to_string(o_id) + ", " + std::to_string(c_id_) + ", " +
            std::to_string(rng_.UniformInt(3000, 4000)) + ", " +
            std::to_string(total) + ", " + std::to_string(ship_addr_id_) +
            ", 'PENDING')",
        [this, &ctx, o_id, total, done = std::move(done)](
            common::ResultSetPtr) {
          InsertOrderLines(ctx, o_id, 0, [this, &ctx, o_id, total, done]() {
            ctx.Query(
                "INSERT INTO " + T("CC_XACTS") +
                    " (CX_O_ID, CX_TYPE, CX_AMT, CX_CO_ID) VALUES (" +
                    std::to_string(o_id) + ", 'VISA', " +
                    std::to_string(total) + ", " +
                    std::to_string(rng_.UniformInt(1, 92)) + ")",
                [this, &ctx, done](common::ResultSetPtr) {
                  ctx.Query(
                      "DELETE FROM " + T("SHOPPING_CART_LINE") +
                          " WHERE SCL_SC_ID = " + std::to_string(cart_id_),
                      [this, done](common::ResultSetPtr) {
                        cart_id_ = 0;
                        cart_items_.clear();
                        done();
                      });
                });
          });
        });
  }

  void InsertOrderLines(ClientContext& ctx, int64_t o_id, size_t idx,
                        std::function<void()> then) {
    if (idx >= cart_items_.size()) {
      then();
      return;
    }
    int64_t i_id = cart_items_[idx];
    int64_t qty = rng_.UniformInt(1, 3);
    ctx.Query(
        "INSERT INTO " + T("ORDER_LINE") +
            " (OL_ID, OL_O_ID, OL_I_ID, OL_QTY, OL_DISCOUNT) VALUES (" +
            std::to_string(o_id * 100 + static_cast<int64_t>(idx)) + ", " +
            std::to_string(o_id) + ", " + std::to_string(i_id) + ", " +
            std::to_string(qty) + ", 0.0)",
        [this, &ctx, o_id, i_id, qty, idx, then = std::move(then)](
            common::ResultSetPtr) {
          ctx.Query("UPDATE " + T("ITEM") + " SET I_STOCK = I_STOCK - " +
                        std::to_string(qty) + " WHERE I_ID = " +
                        std::to_string(i_id),
                    [this, &ctx, o_id, idx, then](common::ResultSetPtr) {
                      InsertOrderLines(ctx, o_id, idx + 1, then);
                    });
        });
  }

  void OrderInquiry(ClientContext& ctx, std::function<void()> done) {
    ctx.Query("SELECT C_UNAME FROM " + T("CUSTOMER") + " WHERE C_ID = " +
                  std::to_string(c_id_),
              [done = std::move(done)](common::ResultSetPtr) { done(); });
  }

  /// The paper's Figure 2 chain: login -> most recent order -> order
  /// header -> order lines (a depth-3 FDQ pipeline).
  void OrderDisplay(ClientContext& ctx, std::function<void()> done) {
    ctx.Query(
        "SELECT C_ID FROM " + T("CUSTOMER") + " WHERE C_UNAME = '" + uname_ +
            "' AND C_PASSWD = '" + passwd_ + "'",
        [this, &ctx, done = std::move(done)](common::ResultSetPtr rs) {
          if (!rs || rs->empty()) return done();
          int64_t cid = rs->At(0, 0).AsInt();
          ctx.Query(
              "SELECT MAX(O_ID) AS O_ID FROM " + T("ORDERS") +
                  " WHERE O_C_ID = " + std::to_string(cid),
              [this, &ctx, done](common::ResultSetPtr mrs) {
                if (!mrs || mrs->empty() || !mrs->At(0, 0).is_int()) {
                  return done();
                }
                int64_t o_id = mrs->At(0, 0).AsInt();
                ctx.Query(
                    "SELECT O_ID, O_C_ID, O_DATE, O_TOTAL, O_SHIP_ADDR_ID, "
                    "O_STATUS FROM " + T("ORDERS") + " WHERE O_ID = " +
                        std::to_string(o_id),
                    [this, &ctx, o_id, done](common::ResultSetPtr) {
                      ctx.Query(
                          "SELECT OL_I_ID, OL_QTY, OL_DISCOUNT, I_TITLE, "
                          "I_COST FROM " + T("ORDER_LINE") + ", " +
                              T("ITEM") +
                              " WHERE OL_I_ID = I_ID AND OL_O_ID = " +
                              std::to_string(o_id),
                          [done](common::ResultSetPtr) { done(); });
                    });
              });
        });
  }

  void AdminRequest(ClientContext& ctx, std::function<void()> done) {
    admin_item_ = RandomItem();
    ctx.Query("SELECT I_ID, I_TITLE, I_COST, I_STOCK FROM " + T("ITEM") +
                  " WHERE I_ID = " + std::to_string(admin_item_),
              [done = std::move(done)](common::ResultSetPtr) { done(); });
  }

  void AdminConfirm(ClientContext& ctx, std::function<void()> done) {
    int64_t item = admin_item_ > 0 ? admin_item_ : RandomItem();
    ctx.Query("UPDATE " + T("ITEM") + " SET I_COST = " +
                  std::to_string(1.0 + rng_.UniformInt(0, 9999) / 100.0) +
                  ", I_PUB_DATE = " + std::to_string(rng_.UniformInt(1, 3650)) +
                  " WHERE I_ID = " + std::to_string(item),
              [done = std::move(done)](common::ResultSetPtr) { done(); });
  }

  TpcwWorkload* w_;
  util::Rng rng_;
  std::vector<double> mix_;
  std::unique_ptr<util::Zipf> item_zipf_;
  TpcwInteraction last_ = TpcwInteraction::kHome;

  int64_t c_id_ = 1;
  std::string uname_;
  std::string passwd_;
  int64_t cart_id_ = 0;
  int64_t cart_seq_ = 0;
  std::vector<int64_t> cart_items_;
  int64_t viewed_item_ = 0;
  int64_t admin_item_ = 0;
  int64_t ship_addr_id_ = 1;
};

}  // namespace

std::unique_ptr<WorkloadClient> TpcwWorkload::MakeClient(int index,
                                                         uint64_t seed) {
  return std::make_unique<TpcwClient>(this, index, seed);
}

}  // namespace apollo::workload
