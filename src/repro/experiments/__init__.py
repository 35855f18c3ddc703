"""Evaluation-section harnesses (paper Tables 2-6 + Figure 7): the query
plan in :mod:`.queries`, one function per table in :mod:`.tables`."""
