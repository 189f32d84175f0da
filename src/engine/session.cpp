#include "engine/session.h"

#include <memory>
#include <utility>

#include "engine/database.h"

namespace holix {

ColumnHandle Session::Handle(const std::string& table,
                             const std::string& column) {
  const std::string key = ColumnRegistry::Key(table, column);
  auto it = handles_.find(key);
  if (it != handles_.end() && it->second.valid()) return it->second;
  ColumnHandle h = db_->Resolve(table, column);
  handles_[key] = h;
  return h;
}

QueryResult Session::Execute(const QuerySpec& spec) {
  return db_->Execute(spec, QueryContext{&rng_});
}

size_t Session::CountRange(const ColumnHandle& column, int64_t low,
                           int64_t high) {
  return db_->CountRange(column, low, high, QueryContext{&rng_});
}

int64_t Session::SumRange(const ColumnHandle& column, int64_t low,
                          int64_t high) {
  return db_->SumRange(column, low, high, QueryContext{&rng_});
}

PositionList Session::SelectRowIds(const ColumnHandle& column, int64_t low,
                                   int64_t high) {
  return db_->SelectRowIds(column, low, high, QueryContext{&rng_});
}

int64_t Session::ProjectSum(const ColumnHandle& where_column,
                            const ColumnHandle& project_column, int64_t low,
                            int64_t high) {
  return db_->ProjectSum(where_column, project_column, low, high,
                         QueryContext{&rng_});
}

RowId Session::Insert(const ColumnHandle& column, int64_t value) {
  return db_->Insert(column, value, QueryContext{&rng_});
}

bool Session::Delete(const ColumnHandle& column, int64_t value) {
  return db_->Delete(column, value, QueryContext{&rng_});
}

size_t Session::CountRangeScalar(const ColumnHandle& column, KeyScalar low,
                                 KeyScalar high) {
  return db_->CountRangeScalar(column, low, high, QueryContext{&rng_});
}

KeyScalar Session::SumRangeScalar(const ColumnHandle& column, KeyScalar low,
                                  KeyScalar high) {
  return db_->SumRangeScalar(column, low, high, QueryContext{&rng_});
}

PositionList Session::SelectRowIdsScalar(const ColumnHandle& column,
                                         KeyScalar low, KeyScalar high) {
  return db_->SelectRowIdsScalar(column, low, high, QueryContext{&rng_});
}

KeyScalar Session::ProjectSumScalar(const ColumnHandle& where_column,
                                    const ColumnHandle& project_column,
                                    KeyScalar low, KeyScalar high) {
  return db_->ProjectSumScalar(where_column, project_column, low, high,
                               QueryContext{&rng_});
}

RowId Session::InsertScalar(const ColumnHandle& column, KeyScalar value) {
  return db_->InsertScalar(column, value, QueryContext{&rng_});
}

bool Session::DeleteScalar(const ColumnHandle& column, KeyScalar value) {
  return db_->DeleteScalar(column, value, QueryContext{&rng_});
}

size_t Session::CountRangeF64(const ColumnHandle& column, double low,
                              double high) {
  return db_->CountRangeF64(column, low, high, QueryContext{&rng_});
}

double Session::SumRangeF64(const ColumnHandle& column, double low,
                            double high) {
  return db_->SumRangeF64(column, low, high, QueryContext{&rng_});
}

PositionList Session::SelectRowIdsF64(const ColumnHandle& column, double low,
                                      double high) {
  return db_->SelectRowIdsF64(column, low, high, QueryContext{&rng_});
}

double Session::ProjectSumF64(const ColumnHandle& where_column,
                              const ColumnHandle& project_column, double low,
                              double high) {
  return db_->ProjectSumF64(where_column, project_column, low, high,
                            QueryContext{&rng_});
}

RowId Session::InsertF64(const ColumnHandle& column, double value) {
  return db_->InsertF64(column, value, QueryContext{&rng_});
}

bool Session::DeleteF64(const ColumnHandle& column, double value) {
  return db_->DeleteF64(column, value, QueryContext{&rng_});
}

std::future<QueryResult> Session::SubmitExecute(QuerySpec spec) {
  Database* db = db_;
  auto task = std::make_shared<std::packaged_task<QueryResult()>>(
      [db, spec = std::move(spec)] { return db->Execute(spec); });
  std::future<QueryResult> fut = task->get_future();
  db_->client_pool().Submit([task] { (*task)(); });
  return fut;
}

void Session::SubmitRaw(std::function<void()> work) {
  db_->client_pool().Submit(std::move(work));
}

}  // namespace holix
