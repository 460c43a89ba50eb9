#include "corpus.h"

#include <cstdio>
#include <cstdlib>
#include <set>

namespace e2ebench {

namespace {

const char* const kFirstNames[] = {"ada",    "grace",  "alan",    "edgar",
                                   "barbara", "donald", "edsger",  "tony",
                                   "john",   "jim",    "leslie",  "ken",
                                   "dennis", "bjarne", "niklaus", "frances"};
const char* const kLastNames[] = {"lovelace", "hopper",  "turing",    "codd",
                                  "liskov",   "knuth",   "dijkstra",  "hoare",
                                  "backus",   "gray",    "lamport",   "thompson",
                                  "ritchie",  "kernighan", "wirth",   "allen"};
const char* const kProducts[] = {"WidgetPro", "GizmoMax",   "FlexCable",
                                 "TurboPump", "NanoSensor", "PowerCell",
                                 "DataVault", "CloudBox"};
const char* const kCities[] = {"london", "paris",  "rome",   "berlin",
                               "madrid", "vienna", "dublin", "lisbon"};
const char* const kProcedures[] = {"appendectomy", "arthroscopy", "biopsy",
                                   "angioplasty",  "colonoscopy",
                                   "tonsillectomy"};
const char* const kSeverities[] = {"low", "medium", "high"};

template <size_t N>
const char* Pick(Rng* rng, const char* const (&list)[N]) {
  return list[rng->Uniform(N)];
}

std::string Fixed2(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

Field IntField(std::string name, int64_t value) {
  return Field{std::move(name), FieldType::kInt, std::to_string(value),
               static_cast<double>(value)};
}

// A money amount with two decimals; the expected double is parsed from the
// same text the appliance parses, so both round identically.
Field MoneyField(std::string name, double value) {
  std::string text = Fixed2(value);
  const double parsed = std::strtod(text.c_str(), nullptr);
  return Field{std::move(name), FieldType::kDouble, std::move(text), parsed};
}

Field StringField(std::string name, std::string value) {
  return Field{std::move(name), FieldType::kString, std::move(value), 0.0};
}

Field DateField(std::string name, Rng* rng) {
  const int year = 2005 + static_cast<int>(rng->Uniform(2));
  const int month = 1 + static_cast<int>(rng->Uniform(12));
  const int day = 1 + static_cast<int>(rng->Uniform(28));
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
  return Field{std::move(name), FieldType::kDate, buf,
               static_cast<double>(DateMicros(year, month, day))};
}

// Lower-case letters only, so the tokenizer keeps each as one term and no
// annotator mistakes it for a number, date or id.
std::string MakeToken(Rng* rng) {
  std::string token = "qz";
  for (int i = 0; i < 7; ++i) {
    token.push_back(static_cast<char>('a' + rng->Uniform(26)));
  }
  return token;
}

}  // namespace

const Field* GenDoc::Find(const std::string& name) const {
  for (const Field& field : fields) {
    if (field.name == name) return &field;
  }
  return nullptr;
}

int64_t DateMicros(int year, int month, int day) {
  // Days from civil (proleptic Gregorian), H. Hinnant's algorithm.
  const int y = month <= 2 ? year - 1 : year;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const int yoe = y - era * 400;
  const int doy = (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1;
  const int doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  const int64_t days = static_cast<int64_t>(era) * 146097 + doe - 719468;
  return days * 86400LL * 1000000LL;
}

Corpus GenerateCorpus(uint64_t seed, size_t scale) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 17);
  Corpus corpus;

  const size_t num_customers = 100 * scale;
  const size_t num_dups = 20 * scale;
  const size_t num_orders_csv = 120 * scale;
  const size_t num_orders_xml = 60 * scale;
  const size_t num_orders_email = 60 * scale;
  const size_t num_transcripts = 80 * scale;
  const size_t num_claims = 60 * scale;
  const size_t num_contracts = 40 * scale;
  const size_t num_text_docs =
      num_orders_email + num_transcripts + num_claims + num_contracts;

  // Planted keywords: group g lands in a known set of 1 + g % 24 text-bearing
  // documents, so a top-10 search has an exact expected answer. The sizes
  // do not depend on the seed, so neither does the cost of a search.
  const size_t num_groups = 48;
  std::vector<std::vector<std::string>> tokens_of_text_doc(num_text_docs);
  std::vector<std::vector<size_t>> group_text_docs(num_groups);
  {
    std::set<std::string> used;
    for (size_t g = 0; g < num_groups; ++g) {
      std::string token;
      do {
        token = MakeToken(&rng);
      } while (!used.insert(token).second);
      const size_t n = 1 + g % 24;
      std::set<size_t> chosen;
      while (chosen.size() < n) chosen.insert(rng.Uniform(num_text_docs));
      for (size_t text_doc : chosen) {
        tokens_of_text_doc[text_doc].push_back(token);
      }
      group_text_docs[g].assign(chosen.begin(), chosen.end());
      corpus.planted.emplace_back(token, std::vector<size_t>());
    }
  }
  std::vector<size_t> text_doc_index(num_text_docs);
  size_t next_text_doc = 0;
  auto planted_suffix = [&](size_t doc_index) {
    const size_t ordinal = next_text_doc++;
    text_doc_index[ordinal] = doc_index;
    std::string suffix;
    for (const std::string& token : tokens_of_text_doc[ordinal]) {
      suffix += " ref " + token + ".";
    }
    return suffix;
  };

  auto add_item = [&](std::string kind, std::string content, size_t first,
                      size_t count) {
    corpus.raw_bytes += content.size();
    corpus.items.push_back(
        RawItem{std::move(kind), std::move(content), first, count});
  };

  // --------------------------------------------------------- customers
  struct Customer {
    int64_t id;
    std::string name;
    std::string email;
    std::string city;
  };
  std::vector<Customer> customers;
  {
    std::string csv = "id,name,email,city,phone\n";
    const size_t first = corpus.docs.size();
    auto add_customer = [&](const Customer& customer, const std::string& phone) {
      csv += std::to_string(customer.id) + "," + customer.name + "," +
             customer.email + "," + customer.city + "," + phone + "\n";
      GenDoc doc;
      doc.kind = "customer";
      doc.fields = {IntField("id", customer.id),
                    StringField("name", customer.name),
                    StringField("email", customer.email),
                    StringField("city", customer.city),
                    StringField("phone", phone)};
      corpus.docs.push_back(std::move(doc));
    };
    for (size_t i = 0; i < num_customers; ++i) {
      Customer customer;
      customer.id = 100 + static_cast<int64_t>(i);
      customer.name =
          std::string(Pick(&rng, kFirstNames)) + " " + Pick(&rng, kLastNames);
      std::string user = customer.name;
      for (char& c : user) {
        if (c == ' ') c = '.';
      }
      customer.email = user + std::to_string(i) + "@example.com";
      customer.city = Pick(&rng, kCities);
      char phone[32];
      std::snprintf(phone, sizeof(phone), "555-%03d-%04d",
                    static_cast<int>(rng.Uniform(1000)),
                    static_cast<int>(rng.Uniform(10000)));
      customers.push_back(customer);
      add_customer(customer, phone);
    }
    // Duplicate records with a typo'd name (entity-resolution input).
    for (size_t i = 0; i < num_dups; ++i) {
      Customer dup = customers[rng.Uniform(customers.size())];
      dup.id = 100 + static_cast<int64_t>(num_customers + i);
      if (dup.name.size() > 4) {
        size_t pos = 1 + rng.Uniform(dup.name.size() - 3);
        if (dup.name[pos] == ' ' || dup.name[pos + 1] == ' ') pos = 1;
        std::swap(dup.name[pos], dup.name[pos + 1]);
      }
      add_customer(dup, "555-000-0000");
    }
    add_item("customer", std::move(csv), first, corpus.docs.size() - first);
  }
  auto pick_customer = [&]() -> const Customer& {
    return customers[rng.Uniform(customers.size())];
  };

  // ------------------------------------------------ orders (3 formats)
  int64_t order_no = 9000;
  corpus.first_order_no = order_no;
  {
    std::string csv = "order_no,customer_id,product,total,date\n";
    const size_t first = corpus.docs.size();
    for (size_t i = 0; i < num_orders_csv; ++i) {
      GenDoc doc;
      doc.kind = "order_csv";
      doc.fields = {IntField("order_no", order_no),
                    IntField("customer_id", pick_customer().id),
                    StringField("product", Pick(&rng, kProducts)),
                    MoneyField("total", 10.0 + rng.Uniform(5000) / 10.0),
                    DateField("date", &rng)};
      for (size_t f = 0; f < doc.fields.size(); ++f) {
        csv += (f == 0 ? "" : ",") + doc.fields[f].text;
      }
      csv += "\n";
      corpus.order_csv_by_no[order_no] = corpus.docs.size();
      ++order_no;
      corpus.docs.push_back(std::move(doc));
    }
    corpus.last_order_no = order_no - 1;
    add_item("order_csv", std::move(csv), first, corpus.docs.size() - first);
  }
  for (size_t i = 0; i < num_orders_xml; ++i) {
    GenDoc doc;
    doc.kind = "order_xml";
    doc.fields = {IntField("order_no", order_no++),
                  IntField("customer_id", pick_customer().id),
                  StringField("product", Pick(&rng, kProducts)),
                  MoneyField("total", 10.0 + rng.Uniform(5000) / 10.0),
                  DateField("date", &rng)};
    std::string xml = "<order>\n";
    for (const Field& field : doc.fields) {
      xml += "  <" + field.name + ">" + field.text + "</" + field.name + ">\n";
    }
    xml += "</order>";
    add_item("order_xml", std::move(xml), corpus.docs.size(), 1);
    corpus.docs.push_back(std::move(doc));
  }
  for (size_t i = 0; i < num_orders_email; ++i) {
    const Customer& customer = pick_customer();
    const std::string product = Pick(&rng, kProducts);
    const std::string total = Fixed2(10.0 + rng.Uniform(5000) / 10.0);
    const std::string no = std::to_string(order_no++);
    const std::string body = "Please process PO-" + no + ": customer " +
                             std::to_string(customer.id) + " orders one " +
                             product + " for $" + total + ". Thanks!" +
                             planted_suffix(corpus.docs.size());
    GenDoc doc;
    doc.kind = "order_email";
    doc.fields = {StringField("from", customer.email),
                  StringField("to", "sales@example.com"),
                  StringField("subject", "Purchase order PO-" + no),
                  StringField("body", body)};
    add_item("order_email",
             "From: " + customer.email +
                 "\nTo: sales@example.com\nSubject: Purchase order PO-" + no +
                 "\n\n" + body,
             corpus.docs.size(), 1);
    corpus.docs.push_back(std::move(doc));
  }

  // --------------------------------------------------- CRM transcripts
  for (size_t i = 0; i < num_transcripts; ++i) {
    const Customer& customer = pick_customer();
    const std::string product = Pick(&rng, kProducts);
    std::string mood;
    switch (rng.Uniform(3)) {
      case 0:
        mood = "I love the " + product +
               ", it is excellent and works great. I would recommend it.";
        break;
      case 1:
        mood = "My " + product +
               " arrived broken. This is terrible, I want a refund.";
        break;
      default:
        mood = "I have a question about configuring the " + product + ".";
    }
    std::string text = "Call transcript. Agent: hello, how can I help? "
                       "Caller: this is " +
                       customer.name + " from " + customer.city +
                       ", customer number " + std::to_string(customer.id) +
                       ". " + mood + " Agent: noted, goodbye." +
                       planted_suffix(corpus.docs.size());
    GenDoc doc;
    doc.kind = "call_transcript";
    doc.fields = {StringField("text", text)};
    add_item("call_transcript", std::move(text), corpus.docs.size(), 1);
    corpus.docs.push_back(std::move(doc));
  }

  // ------------------------------------------------------------ claims
  int64_t claim_no = 70000;
  for (size_t i = 0; i < num_claims; ++i) {
    const Customer& patient = pick_customer();
    const std::string procedure = Pick(&rng, kProcedures);
    const double reference = 500.0 + 100.0 * (procedure.size() % 7);
    const double factor = rng.Uniform(100) < 15
                              ? 2.0 + rng.Uniform(1000) / 1000.0
                              : 0.8 + rng.Uniform(400) / 1000.0;
    const std::string provider = "clinic_" + std::to_string(rng.Uniform(10));
    const Field date = DateField("date", &rng);
    const std::string notes = "Patient " + patient.name + " underwent " +
                              procedure + " on " + date.text +
                              "; billed accordingly." +
                              planted_suffix(corpus.docs.size());
    GenDoc doc;
    doc.kind = "claim";
    doc.fields = {IntField("claim_no", claim_no++),
                  IntField("patient_id", patient.id),
                  StringField("provider", provider),
                  MoneyField("amount", reference * factor),
                  StringField("notes", notes)};
    std::string xml = "<claim>\n";
    for (const Field& field : doc.fields) {
      xml += "  <" + field.name + ">" + field.text + "</" + field.name + ">\n";
    }
    xml += "</claim>";
    add_item("claim", std::move(xml), corpus.docs.size(), 1);
    corpus.docs.push_back(std::move(doc));
  }

  // ------------------------------------------------ contract e-mails
  const size_t num_companies = 2 + num_contracts / 4;
  for (size_t i = 0; i < num_contracts; ++i) {
    const size_t k = i % (num_companies - 1);
    const std::string a = "company_" + std::to_string(k);
    const std::string b = "company_" + std::to_string(k + 1);
    const std::string subject = "Partnership agreement " + std::to_string(i);
    const std::string body = "This contract binds " + a + " and " + b +
                             " as partners effective " +
                             DateField("date", &rng).text + "." +
                             planted_suffix(corpus.docs.size());
    GenDoc doc;
    doc.kind = "contract_email";
    doc.fields = {StringField("from", "legal@" + a + ".com"),
                  StringField("to", "legal@" + b + ".com"),
                  StringField("subject", subject),
                  StringField("body", body)};
    add_item("contract_email",
             "From: legal@" + a + ".com\nTo: legal@" + b +
                 ".com\nSubject: " + subject + "\n\n" + body,
             corpus.docs.size(), 1);
    corpus.docs.push_back(std::move(doc));
  }

  for (size_t g = 0; g < num_groups; ++g) {
    for (size_t text_doc : group_text_docs[g]) {
      corpus.planted[g].second.push_back(text_doc_index[text_doc]);
    }
  }
  return corpus;
}

GenDoc MakeTicket(Rng* rng, int64_t ticket_no, std::string* raw) {
  GenDoc doc;
  doc.kind = "ticket";
  const int64_t customer_id = 100 + static_cast<int64_t>(rng->Uniform(4000));
  const std::string severity = Pick(rng, kSeverities);
  const std::string summary = std::string("Caller reports the ") +
                              Pick(rng, kProducts) + " in " +
                              Pick(rng, kCities) + " needs service.";
  doc.fields = {IntField("ticket_no", ticket_no),
                IntField("customer_id", customer_id),
                StringField("severity", severity),
                StringField("summary", summary)};
  *raw = "{\"ticket_no\": " + std::to_string(ticket_no) +
         ", \"customer_id\": " + std::to_string(customer_id) +
         ", \"severity\": \"" + severity + "\", \"summary\": \"" + summary +
         "\"}";
  return doc;
}

}  // namespace e2ebench
